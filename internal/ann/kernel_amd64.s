#include "textflag.h"

// func hidden16AVX2f64(wt *float64, xs *float64, rows, in int, dst *float64)
//
// Four YMM accumulators hold the 16 unit sums for one row; each input
// step broadcasts x_i and does a VMULPD + VADDPD pair per quarter,
// never fused — the multiply-then-add order of the portable sumBatch
// loop, so lane j's bits match the scalar accumulation for unit j. in
// must be >= 1 (the caller gates on it).
TEXT ·hidden16AVX2f64(SB), NOSPLIT, $0-40
	MOVQ wt+0(FP), SI
	MOVQ xs+8(FP), DI
	MOVQ rows+16(FP), CX
	MOVQ in+24(FP), R8
	MOVQ dst+32(FP), DX
	MOVQ R8, R9
	SHLQ $7, R9              // in rows × 16 doubles × 8 bytes
	LEAQ (SI)(R9*1), R10     // bias row

rowloop64:
	TESTQ CX, CX
	JZ done64
	VMOVUPD (R10), Y0        // acc[0:4]   = bias[0:4]
	VMOVUPD 32(R10), Y1      // acc[4:8]   = bias[4:8]
	VMOVUPD 64(R10), Y2      // acc[8:12]  = bias[8:12]
	VMOVUPD 96(R10), Y3      // acc[12:16] = bias[12:16]
	MOVQ SI, R11             // weight row cursor
	MOVQ R8, R12             // input counter

iloop64:
	VBROADCASTSD (DI), Y4    // x_i
	VMULPD (R11), Y4, Y5     // x_i * w[i][0:4]   (rounded)
	VADDPD Y5, Y0, Y0        // acc += …          (rounded)
	VMULPD 32(R11), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R11), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R11), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, DI
	ADDQ $128, R11
	DECQ R12
	JNZ iloop64

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	DECQ CX
	JMP rowloop64

done64:
	VZEROUPPER
	RET

// UPDATE16 updates four units of one input row at byte offset off:
// dw = G·x_i + mom·prev (G holds -lr·δ for the four units, Y4 the
// broadcast x_i, Y15 mom), then w += dw and prev = dw. Each VMULPD and
// VADDPD rounds once, as Train's dw := g*xi + mom*prevIn[i] and
// wIn[i] += dw do.
#define UPDATE16(off, G) \
	VMULPD Y4, G, Y5; \
	VMULPD off(DI), Y15, Y6; \
	VADDPD Y6, Y5, Y5; \
	VADDPD off(SI), Y5, Y6; \
	VMOVUPD Y6, off(SI); \
	VMOVUPD Y5, off(DI)

// BIAS16 is UPDATE16 for the bias row, whose input is 1: dw = G +
// mom·prev, as Train's g + mom*prev[l.in].
#define BIAS16(off, G) \
	VMULPD off(DI), Y15, Y6; \
	VADDPD Y6, G, Y5; \
	VADDPD off(SI), Y5, Y6; \
	VMOVUPD Y6, off(SI); \
	VMOVUPD Y5, off(DI)

// func update16AVX2(wt, mt, xs *float64, in int, lrd *float64, mom float64)
//
// The momentum update of a 16-unit layer whose weights wt and previous
// updates mt are input-major rows of 16 (transpose's layout, bias row
// last): in input rows, then the bias row. in must be >= 1 (every
// network has an input).
TEXT ·update16AVX2(SB), NOSPLIT, $0-48
	MOVQ wt+0(FP), SI
	MOVQ mt+8(FP), DI
	MOVQ xs+16(FP), BX
	MOVQ in+24(FP), CX
	MOVQ lrd+32(FP), DX
	VBROADCASTSD mom+40(FP), Y15
	VMOVUPD (DX), Y0         // -lr·δ[0:4]
	VMOVUPD 32(DX), Y1       // -lr·δ[4:8]
	VMOVUPD 64(DX), Y2       // -lr·δ[8:12]
	VMOVUPD 96(DX), Y3       // -lr·δ[12:16]

updloop:
	VBROADCASTSD (BX), Y4    // x_i
	UPDATE16(0, Y0)
	UPDATE16(32, Y1)
	UPDATE16(64, Y2)
	UPDATE16(96, Y3)
	ADDQ $8, BX
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ updloop

	BIAS16(0, Y0)
	BIAS16(32, Y1)
	BIAS16(64, Y2)
	BIAS16(96, Y3)
	VZEROUPPER
	RET

// Constants of the vector sigmoid, four lanes each. The floating-point
// literals are those of $GOROOT/src/math/exp_amd64.s, so the assembler
// rounds them to the same bits.
#define SPLAT8(off, v) DATA sigc<>+(off)(SB)/8, v; DATA sigc<>+(off+8)(SB)/8, v; DATA sigc<>+(off+16)(SB)/8, v; DATA sigc<>+(off+24)(SB)/8, v
#define SPLAT4(off, v) DATA sigc<>+(off)(SB)/4, v; DATA sigc<>+(off+4)(SB)/4, v; DATA sigc<>+(off+8)(SB)/4, v; DATA sigc<>+(off+12)(SB)/4, v

SPLAT8(0, $0x8000000000000000)                          // sign bit
SPLAT8(32, $1.4426950408889634073599246810018920)       // log2(e)
SPLAT8(64, $0.69314718055966295651160180568695068359375) // ln 2, upper half
SPLAT8(96, $0.28235290563031577122588448175013436025525412068e-12) // ln 2, lower half
SPLAT8(128, $0.0625)
SPLAT8(160, $2.4801587301587301587e-5)
SPLAT8(192, $1.9841269841269841270e-4)
SPLAT8(224, $1.3888888888888888889e-3)
SPLAT8(256, $8.3333333333333333333e-3)
SPLAT8(288, $4.1666666666666666667e-2)
SPLAT8(320, $1.6666666666666666667e-1)
SPLAT8(352, $0.5)
SPLAT8(384, $1.0)
SPLAT8(416, $2.0)
SPLAT4(448, $1022)
SPLAT4(464, $2045)
SPLAT4(480, $1023)
GLOBL sigc<>(SB), RODATA|NOPTR, $496

#define SIGN sigc<>+0(SB)
#define LOG2E sigc<>+32(SB)
#define LN2U sigc<>+64(SB)
#define LN2L sigc<>+96(SB)
#define SIXTEENTH sigc<>+128(SB)
#define C8 sigc<>+160(SB)
#define C7 sigc<>+192(SB)
#define C6 sigc<>+224(SB)
#define C5 sigc<>+256(SB)
#define C4 sigc<>+288(SB)
#define C3 sigc<>+320(SB)
#define HALF sigc<>+352(SB)
#define ONE sigc<>+384(SB)
#define TWO sigc<>+416(SB)
#define BIAS1022 sigc<>+448(SB)
#define MAXU sigc<>+464(SB)
#define BIAS1023 sigc<>+480(SB)

// func sigmoidAVX2(ys *float64, groups int) int
//
// Applies 1/(1+exp(-y)) in place to groups 4-element groups of ys and
// returns the number of elements done. exp is math.Exp's avxfma branch
// ($GOROOT/src/math/exp_amd64.s) lane for lane, with the same ops in
// the same order: k = round(x·log2e), two Cody-Waite FNMADD steps, the
// 1/16 reduction, the 8-term Horner FMA chain, four e = e·(e+2)
// doublings (the last multiply fused with the final +1) and the 2^k
// scale; then 1+e and the divide of the scalar expression. That
// branch's ldexp scales by one multiply only when 0 < k+1023 < 2047;
// every other case (NaN, ±Inf, overflow, subnormal results) takes a
// different sequence. Such a group is detected before anything is
// stored: the kernel stops there and returns, and the caller finishes
// the group in scalar code.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-24
	MOVQ ys+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX
	VMOVUPD ONE, Y7

sigloop:
	CMPQ AX, CX
	JGE sigdone
	VMOVUPD (SI), Y0
	VXORPD SIGN, Y0, Y0              // x = -y
	VMULPD LOG2E, Y0, Y1             // x·log2e
	VCVTPD2DQY Y1, X4                // k = round to nearest
	VPADDD BIAS1022, X4, X5          // k+1022
	VPMINUD MAXU, X5, X6
	VPCMPEQD X5, X6, X6              // 0 <= k+1022 <= 2045, unsigned
	VMOVMSKPS X6, DX
	CMPL DX, $15
	JNE sigdone                      // some lane leaves the one-multiply range
	VCVTDQ2PD X4, Y1                 // float64(k)
	VFNMADD231PD LN2U, Y1, Y0        // x -= k·ln2u  (fused)
	VFNMADD231PD LN2L, Y1, Y0        // x -= k·ln2l  (fused)
	VMULPD SIXTEENTH, Y0, Y0         // r = x/16
	VMOVUPD C8, Y2
	VFMADD213PD C7, Y0, Y2           // p = p·r + c
	VFMADD213PD C6, Y0, Y2
	VFMADD213PD C5, Y0, Y2
	VFMADD213PD C4, Y0, Y2
	VFMADD213PD C3, Y0, Y2
	VFMADD213PD HALF, Y0, Y2
	VFMADD213PD ONE, Y0, Y2
	VMULPD Y2, Y0, Y0                // e = r·p
	VADDPD TWO, Y0, Y2               // e = e·(e+2), four times
	VMULPD Y2, Y0, Y0
	VADDPD TWO, Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD TWO, Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD TWO, Y0, Y2
	VFMADD213PD ONE, Y2, Y0          // e·(e+2) + 1  (fused)
	VPADDD BIAS1023, X4, X4          // k+1023
	VPMOVZXDQ X4, Y3
	VPSLLQ $52, Y3, Y3               // 2^k
	VMULPD Y3, Y0, Y0
	VADDPD Y7, Y0, Y0                // 1 + exp(-y)
	VDIVPD Y0, Y7, Y0                // 1 / (1 + exp(-y))
	VMOVUPD Y0, (SI)
	ADDQ $32, SI
	INCQ AX
	JMP sigloop

sigdone:
	SHLQ $2, AX
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
