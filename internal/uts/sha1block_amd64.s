// One-block SHA-1 with the SHA extensions, for the two messages child
// generation hashes: the 24-byte state ‖ be32(index) child input and
// the 20-byte state of a granularity chain. Both fit one 64-byte block
// from the fixed IV, so there is no length loop, no carried digest and
// no padding code. The block is
//
//	W0..W4   the state, big-endian words
//	W5       the child index (24-byte message) or 0x80000000 (20-byte)
//	W6       0x80000000 (24-byte message) or 0
//	W7..W14  0
//	W15      the message length in bits, 192 or 160
//
// and everything from the padding word on is a RODATA constant.
// DESIGN.md §10 "Child generation" has the reasoning and the numbers.

#include "textflag.h"

// Register roles. Words sit in the lanes SHA1RNDS4 expects: lane 3
// holds A (or W[4i]) and lane 0 holds D (or W[4i+3]); E travels in lane
// 3 of E0/E1, which alternate as the E operand from group to group.
#define ABCD X0
#define E0   X1
#define E1   X2
#define M0   X3
#define M1   X4
#define M2   X5
#define M3   X6
#define SHUF X7 // byte reversal: big-endian words <-> lanes
#define IVA  X8 // initial A, B, C, D
#define IVE  X9 // initial E in lane 3

// GROUP runs four rounds with round constant k. e is this group's E
// operand and takes the four schedule words of m; enext is loaded with
// the state whose A becomes the next group's E.
#define GROUP(k, e, enext, m) \
	SHA1NEXTE m, e;        \
	MOVO      ABCD, enext; \
	SHA1RNDS4 $k, e, ABCD

// SCHED advances the message schedule behind a group that consumed m:
// mdone becomes the next group's words, mnext starts on its own and
// mxor takes m as its XOR term.
#define SCHED(m, mdone, mnext, mxor) \
	SHA1MSG2 m, mdone; \
	SHA1MSG1 m, mnext; \
	PXOR     m, mxor

// ROUNDS is the whole compression: M0..M3 hold W0..W15 on entry, the
// digest words leave in ABCD and lane 3 of E0.
#define ROUNDS \
	MOVOU     iv<>+0(SB), IVA;  \
	MOVOU     iv<>+16(SB), IVE; \
	MOVO      IVA, ABCD;        \
	MOVO      IVE, E0;          \
	PADDD     M0, E0;           /* rounds 0-3 */ \
	MOVO      ABCD, E1;         \
	SHA1RNDS4 $0, E0, ABCD;     \
	GROUP(0, E1, E0, M1);       /* 4-7 */        \
	SHA1MSG1  M1, M0;           \
	GROUP(0, E0, E1, M2);       /* 8-11 */       \
	SHA1MSG1  M2, M1;           \
	PXOR      M2, M0;           \
	GROUP(0, E1, E0, M3);       /* 12-15 */      \
	SCHED(M3, M0, M2, M1);      \
	GROUP(0, E0, E1, M0);       /* 16-19 */      \
	SCHED(M0, M1, M3, M2);      \
	GROUP(1, E1, E0, M1);       /* 20-23 */      \
	SCHED(M1, M2, M0, M3);      \
	GROUP(1, E0, E1, M2);       /* 24-27 */      \
	SCHED(M2, M3, M1, M0);      \
	GROUP(1, E1, E0, M3);       /* 28-31 */      \
	SCHED(M3, M0, M2, M1);      \
	GROUP(1, E0, E1, M0);       /* 32-35 */      \
	SCHED(M0, M1, M3, M2);      \
	GROUP(1, E1, E0, M1);       /* 36-39 */      \
	SCHED(M1, M2, M0, M3);      \
	GROUP(2, E0, E1, M2);       /* 40-43 */      \
	SCHED(M2, M3, M1, M0);      \
	GROUP(2, E1, E0, M3);       /* 44-47 */      \
	SCHED(M3, M0, M2, M1);      \
	GROUP(2, E0, E1, M0);       /* 48-51 */      \
	SCHED(M0, M1, M3, M2);      \
	GROUP(2, E1, E0, M1);       /* 52-55 */      \
	SCHED(M1, M2, M0, M3);      \
	GROUP(2, E0, E1, M2);       /* 56-59 */      \
	SCHED(M2, M3, M1, M0);      \
	GROUP(3, E1, E0, M3);       /* 60-63 */      \
	SCHED(M3, M0, M2, M1);      \
	GROUP(3, E0, E1, M0);       /* 64-67 */      \
	SCHED(M0, M1, M3, M2);      \
	GROUP(3, E1, E0, M1);       /* 68-71 */      \
	SHA1MSG2  M1, M2;           \
	PXOR      M1, M3;           \
	GROUP(3, E0, E1, M2);       /* 72-75 */      \
	SHA1MSG2  M2, M3;           \
	GROUP(3, E1, E0, M3);       /* 76-79 */      \
	SHA1NEXTE IVE, E0;          /* digest = IV + working state */ \
	PADDD     IVA, ABCD

// STORE writes the digest, big-endian, to the 20 bytes at DI.
#define STORE \
	PSHUFB SHUF, ABCD; \
	PSHUFB SHUF, E0;   \
	MOVOU  ABCD, (DI); \
	MOVL   E0, 16(DI)

// func blockChildSHANI(dst *State, src *[24]byte)
//
// W4 and W5 are loaded separately on purpose. The caller has just
// written the child index with a 4-byte store; one 8-byte load over
// bytes 16..23 could not be forwarded from it and would wait for that
// store to retire — behind the previous child's whole hash — which
// serialises siblings that otherwise overlap (41 against 59 ns per
// child in BenchmarkUTSChildGen).
TEXT ·blockChildSHANI(SB), NOSPLIT, $0-16
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVOU     flip<>(SB), SHUF
	MOVOU     (SI), M0            // W0..W3
	MOVL      16(SI), M1          // W4
	MOVL      20(SI), M2          // W5
	PUNPCKLLQ M2, M1              // W4, W5, 0, 0
	PSHUFB    SHUF, M0
	PSHUFB    SHUF, M1
	MOVOU     tail24<>+0(SB), M2
	POR       M2, M1              // W6 = 0x80000000
	PXOR      M2, M2              // W8..W11 = 0
	MOVOU     tail24<>+16(SB), M3 // W15 = 192
	ROUNDS
	STORE
	RET

// func blockChainSHANI(dst, src *State)
TEXT ·blockChainSHANI(SB), NOSPLIT, $0-16
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVOU  flip<>(SB), SHUF
	MOVOU  (SI), M0            // W0..W3
	MOVL   16(SI), M1          // W4, 0, 0, 0
	PSHUFB SHUF, M0
	PSHUFB SHUF, M1
	MOVOU  tail20<>+0(SB), M2
	POR    M2, M1              // W5 = 0x80000000
	PXOR   M2, M2              // W8..W11 = 0
	MOVOU  tail20<>+16(SB), M3 // W15 = 160
	ROUNDS
	STORE
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// flip reverses the 16 bytes of a register: four big-endian words in
// memory order become lanes 3..0, and back.
DATA flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip<>+8(SB)/8, $0x0001020304050607
GLOBL flip<>(SB), RODATA|NOPTR, $16

// iv is the SHA-1 initial state: D, C, B, A in lanes 0..3, then E in
// lane 3 of an otherwise zero register.
DATA iv<>+0(SB)/4, $0x10325476
DATA iv<>+4(SB)/4, $0x98badcfe
DATA iv<>+8(SB)/4, $0xefcdab89
DATA iv<>+12(SB)/4, $0x67452301
DATA iv<>+16(SB)/8, $0
DATA iv<>+24(SB)/4, $0
DATA iv<>+28(SB)/4, $0xc3d2e1f0
GLOBL iv<>(SB), RODATA|NOPTR, $32

// tail24 is the constant part of a 24-byte message's block: the
// padding bit in W6 (lane 1 of W4..W7), then W12..W15 with the length,
// 192 bits, in lane 0.
DATA tail24<>+0(SB)/4, $0
DATA tail24<>+4(SB)/4, $0x80000000
DATA tail24<>+8(SB)/8, $0
DATA tail24<>+16(SB)/4, $192
DATA tail24<>+20(SB)/4, $0
DATA tail24<>+24(SB)/8, $0
GLOBL tail24<>(SB), RODATA|NOPTR, $32

// tail20 is the same for a 20-byte message: the padding bit in W5
// (lane 2), the length 160.
DATA tail20<>+0(SB)/8, $0
DATA tail20<>+8(SB)/4, $0x80000000
DATA tail20<>+12(SB)/4, $0
DATA tail20<>+16(SB)/4, $160
DATA tail20<>+20(SB)/4, $0
DATA tail20<>+24(SB)/8, $0
GLOBL tail20<>(SB), RODATA|NOPTR, $32
