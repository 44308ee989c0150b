/* Keccak-256 with the legacy (pre-SHA-3) 0x01 padding, as one CPython
   function: keccak256(buffer) -> bytes.

   The argument is any object that exports a contiguous buffer (bytes,
   bytearray, memoryview, ...) of any length; the result is the 32-byte
   digest.  Nothing is cached between calls.  sctest._kernels compiles
   this file on first import (see its docstring); tests/test_keccak.py
   holds it to a loop-form Python reference sponge and to the published
   test vectors. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define RATE 136 /* bytes absorbed per permutation, for a 256-bit digest */

static const uint64_t RC[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
    0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
    0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

/* rho rotation offset of lane x + 5y */
static const unsigned ROT[25] = {
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
};

/* pi: lane x + 5y moves to lane y + 5((2x + 3y) mod 5) */
static const unsigned PI[25] = {
    0, 10, 20, 5, 15,
    16, 1, 11, 21, 6,
    7, 17, 2, 12, 22,
    23, 8, 18, 3, 13,
    14, 24, 9, 19, 4,
};

static inline uint64_t rotl(uint64_t v, unsigned r)
{
    return r ? (v << r) | (v >> (64 - r)) : v;
}

static void f1600(uint64_t a[25])
{
    uint64_t b[25], c[5], d;
    for (int round = 0; round < 24; round++) {
        /* theta */
        for (int x = 0; x < 5; x++)
            c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        for (int x = 0; x < 5; x++) {
            d = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
            for (int y = 0; y < 25; y += 5)
                a[y + x] ^= d;
        }
        /* rho and pi */
        for (int i = 0; i < 25; i++)
            b[PI[i]] = rotl(a[i], ROT[i]);
        /* chi */
        for (int y = 0; y < 25; y += 5)
            for (int x = 0; x < 5; x++)
                a[y + x] = b[y + x] ^ (~b[y + (x + 1) % 5] & b[y + (x + 2) % 5]);
        /* iota */
        a[0] ^= RC[round];
    }
}

static void absorb(uint64_t a[25], const unsigned char *block)
{
    for (int i = 0; i < RATE / 8; i++) {
        uint64_t lane = 0;
        for (int k = 7; k >= 0; k--)
            lane = (lane << 8) | block[8 * i + k];
        a[i] ^= lane;
    }
    f1600(a);
}

static PyObject *keccak256(PyObject *self, PyObject *arg)
{
    (void)self;
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    uint64_t a[25] = {0};
    const unsigned char *p = view.buf;
    Py_ssize_t n = view.len;
    for (; n >= RATE; n -= RATE, p += RATE)
        absorb(a, p);
    unsigned char tail[RATE] = {0};
    memcpy(tail, p, (size_t)n);
    PyBuffer_Release(&view);
    tail[n] ^= 0x01; /* one byte left gets both pad bits: 0x81 */
    tail[RATE - 1] ^= 0x80;
    absorb(a, tail);
    unsigned char digest[32];
    for (int i = 0; i < 32; i++)
        digest[i] = (unsigned char)(a[i / 8] >> (8 * (i % 8)));
    return PyBytes_FromStringAndSize((const char *)digest, 32);
}

static PyMethodDef methods[] = {
    {"keccak256", keccak256, METH_O,
     "keccak256(buffer) -> bytes\n\n"
     "Keccak-256 (legacy 0x01 padding) of a contiguous buffer."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_keccak",
    .m_doc = "Compiled Keccak-256 sponge.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__keccak(void)
{
    return PyModule_Create(&module);
}
