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

// Constants of the vector sigmoid and exp, eight lanes each (the 4-lane
// kernels read the first half). The floating-point literals are those
// of $GOROOT/src/math/exp_amd64.s, so the assembler rounds them to the
// same bits.
#define SPLAT8(off, v) DATA sigc<>+(off)(SB)/8, v; DATA sigc<>+(off+8)(SB)/8, v; DATA sigc<>+(off+16)(SB)/8, v; DATA sigc<>+(off+24)(SB)/8, v; DATA sigc<>+(off+32)(SB)/8, v; DATA sigc<>+(off+40)(SB)/8, v; DATA sigc<>+(off+48)(SB)/8, v; DATA sigc<>+(off+56)(SB)/8, v
#define SPLAT4(off, v) DATA sigc<>+(off)(SB)/4, v; DATA sigc<>+(off+4)(SB)/4, v; DATA sigc<>+(off+8)(SB)/4, v; DATA sigc<>+(off+12)(SB)/4, v; DATA sigc<>+(off+16)(SB)/4, v; DATA sigc<>+(off+20)(SB)/4, v; DATA sigc<>+(off+24)(SB)/4, v; DATA sigc<>+(off+28)(SB)/4, v

SPLAT8(0, $0x8000000000000000)                          // sign bit
SPLAT8(64, $1.4426950408889634073599246810018920)       // log2(e)
SPLAT8(128, $0.69314718055966295651160180568695068359375) // ln 2, upper half
SPLAT8(192, $0.28235290563031577122588448175013436025525412068e-12) // ln 2, lower half
SPLAT8(256, $0.0625)
SPLAT8(320, $2.4801587301587301587e-5)
SPLAT8(384, $1.9841269841269841270e-4)
SPLAT8(448, $1.3888888888888888889e-3)
SPLAT8(512, $8.3333333333333333333e-3)
SPLAT8(576, $4.1666666666666666667e-2)
SPLAT8(640, $1.6666666666666666667e-1)
SPLAT8(704, $0.5)
SPLAT8(768, $1.0)
SPLAT8(832, $2.0)
SPLAT4(896, $1022)
SPLAT4(928, $2045)
SPLAT4(960, $1023)
GLOBL sigc<>(SB), RODATA|NOPTR, $992

#define SIGN sigc<>+0(SB)
#define LOG2E sigc<>+64(SB)
#define LN2U sigc<>+128(SB)
#define LN2L sigc<>+192(SB)
#define SIXTEENTH sigc<>+256(SB)
#define C8 sigc<>+320(SB)
#define C7 sigc<>+384(SB)
#define C6 sigc<>+448(SB)
#define C5 sigc<>+512(SB)
#define C4 sigc<>+576(SB)
#define C3 sigc<>+640(SB)
#define HALF sigc<>+704(SB)
#define ONE sigc<>+768(SB)
#define TWO sigc<>+832(SB)
#define BIAS1022 sigc<>+896(SB)
#define MAXU sigc<>+928(SB)
#define BIAS1023 sigc<>+960(SB)

// EXPV replaces every lane of V0 with exp(V0), or jumps to fail, before
// anything is stored, when some lane leaves the range in which
// math.Exp's avxfma branch ($GOROOT/src/math/exp_amd64.s) finishes with
// one 2^k multiply. It is that branch lane for lane, with the same ops
// in the same order: k = round(x·log2e), two Cody-Waite FNMADD steps,
// the 1/16 reduction, the 8-term Horner FMA chain, four e = e·(e+2)
// doublings (the last multiply fused with the final +1) and the 2^k
// scale. The branch's ldexp scales by one multiply only when
// 0 < k+1023 < 2047; every other case (NaN, ±Inf, overflow, subnormal
// results) takes a different sequence and is left to the caller's
// scalar code. V0–V3 are double vectors, I4–I6 the int32 vectors of
// the same lane count, ALL the mask of every lane, CVT the conversion
// from V to I. Clobbers V1–V3, I4–I6 and DX.
#define EXPV(V0, V1, V2, V3, I4, I5, I6, ALL, CVT, fail) \
	VMULPD LOG2E, V0, V1; \
	CVT V1, I4; \
	VPADDD BIAS1022, I4, I5; \
	VPMINUD MAXU, I5, I6; \
	VPCMPEQD I5, I6, I6; \
	VMOVMSKPS I6, DX; \
	CMPL DX, ALL; \
	JNE fail; \
	VCVTDQ2PD I4, V1; \
	VFNMADD231PD LN2U, V1, V0; \
	VFNMADD231PD LN2L, V1, V0; \
	VMULPD SIXTEENTH, V0, V0; \
	VMOVUPD C8, V2; \
	VFMADD213PD C7, V0, V2; \
	VFMADD213PD C6, V0, V2; \
	VFMADD213PD C5, V0, V2; \
	VFMADD213PD C4, V0, V2; \
	VFMADD213PD C3, V0, V2; \
	VFMADD213PD HALF, V0, V2; \
	VFMADD213PD ONE, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD TWO, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD TWO, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD TWO, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD TWO, V0, V2; \
	VFMADD213PD ONE, V2, V0; \
	VPADDD BIAS1023, I4, I4; \
	VPMOVZXDQ I4, V3; \
	VPSLLQ $52, V3, V3; \
	VMULPD V3, V0, V0

// EXP4 is EXPV on four lanes in YMM registers, EXP8 on eight in ZMM
// registers (AVX-512F; VMOVMSKPS reads the eight k lanes from a YMM).
#define EXP4(fail) EXPV(Y0, Y1, Y2, Y3, X4, X5, X6, $15, VCVTPD2DQY, fail)
#define EXP8(fail) EXPV(Z0, Z1, Z2, Z3, Y4, Y5, Y6, $255, VCVTPD2DQ, fail)

// func expAVX2(ys *float64, groups int) int
//
// Applies math.Exp in place to groups 4-element groups of ys and
// returns the number of elements done: it stops before the first group
// EXP4 leaves to the scalar path.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ ys+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX

exploop:
	CMPQ AX, CX
	JGE expdone
	VMOVUPD (SI), Y0
	EXP4(expdone)
	VMOVUPD Y0, (SI)
	ADDQ $32, SI
	INCQ AX
	JMP exploop

expdone:
	SHLQ $2, AX
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// func sigmoidAVX2(ys *float64, groups int) int
//
// Applies 1/(1+exp(-y)) in place to groups 4-element groups of ys and
// returns the number of elements done: the negate, EXP4, then 1+e and
// the divide of the scalar expression. It stops before the first group
// EXP4 leaves to the scalar path.
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
	EXP4(sigdone)
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

// func sigmoidAVX512(ys *float64, groups int) int
//
// sigmoidAVX2 on eight lanes: the same ops in ZMM registers (EXP8 for
// EXP4), for groups 8-element groups.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-24
	MOVQ ys+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX
	VMOVUPD ONE, Z7

sig8loop:
	CMPQ AX, CX
	JGE sig8done
	VMOVUPD (SI), Z0
	VXORPD SIGN, Z0, Z0              // x = -y
	EXP8(sig8done)
	VADDPD Z7, Z0, Z0                // 1 + exp(-y)
	VDIVPD Z0, Z7, Z0                // 1 / (1 + exp(-y))
	VMOVUPD Z0, (SI)
	ADDQ $64, SI
	INCQ AX
	JMP sig8loop

sig8done:
	SHLQ $3, AX
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// OUT16Q adds the products of one quarter of a 1-unit layer's 16
// inputs, the quarter at byte offset off of each of four rows, to the
// row sums in Y0. W holds the quarter's four weights. The four rows'
// products (one row per register, rounded once each as in sumBatch's
// w * x) are transposed 4×4 by unpacks and 128-bit permutes, which only
// move bits, into one register per input with one row per lane; those
// are then added to the sums in ascending input order, each VADDPD
// rounded on its own, never fused.
#define OUT16Q(off, W) \
	VMULPD off(DI), W, Y1; \
	VMULPD 128+off(DI), W, Y2; \
	VMULPD 256+off(DI), W, Y3; \
	VMULPD 384+off(DI), W, Y4; \
	VUNPCKLPD Y2, Y1, Y5; \
	VUNPCKHPD Y2, Y1, Y6; \
	VUNPCKLPD Y4, Y3, Y7; \
	VUNPCKHPD Y4, Y3, Y8; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x20, Y8, Y6, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3; \
	VPERM2F128 $0x31, Y8, Y6, Y4; \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y2, Y0, Y0; \
	VADDPD Y3, Y0, Y0; \
	VADDPD Y4, Y0, Y0

// func output16AVX2(w *float64, xs *float64, groups int, dst *float64)
//
// The pre-activation sums of a 1-unit layer over 16 inputs for groups
// groups of four rows: dst[r] = bias + Σ_i w[i]·xs[r*16+i], summed in
// ascending input order from the bias, as in sumBatch. w holds the 16
// weights, then the bias (the layer's unit-major row as it is).
TEXT ·output16AVX2(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ xs+8(FP), DI
	MOVQ groups+16(FP), CX
	MOVQ dst+24(FP), DX
	VMOVUPD (SI), Y12                // w[0:4]
	VMOVUPD 32(SI), Y13              // w[4:8]
	VMOVUPD 64(SI), Y14              // w[8:12]
	VMOVUPD 96(SI), Y15              // w[12:16]
	VBROADCASTSD 128(SI), Y11        // bias

outloop:
	TESTQ CX, CX
	JZ outdone
	VMOVAPD Y11, Y0                  // four row sums = bias
	OUT16Q(0, Y12)
	OUT16Q(32, Y13)
	OUT16Q(64, Y14)
	OUT16Q(96, Y15)
	VMOVUPD Y0, (DX)
	ADDQ $512, DI                    // four rows × 16 doubles
	ADDQ $32, DX
	DECQ CX
	JMP outloop

outdone:
	VZEROUPPER
	RET
