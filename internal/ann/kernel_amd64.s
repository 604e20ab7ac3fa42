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
SPLAT8(992, $-1022.0)
SPLAT8(1056, $1023.0)
GLOBL sigc<>(SB), RODATA|NOPTR, $1120

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
#define KMIN sigc<>+992(SB)
#define KMAX sigc<>+1056(SB)

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

// EXP4 is EXPV on four lanes in YMM registers.
#define EXP4(fail) EXPV(Y0, Y1, Y2, Y3, X4, X5, X6, $15, VCVTPD2DQY, fail)

// The 8-lane kernels keep every constant they use in Z16–Z31, loaded
// once per call by CONST8, so the loop reads none from memory: a ZMM
// load of sigc's 64-byte splats would split a cache line wherever the
// linker places sigc off a 64-byte boundary (it aligns data to 32).
// VZEROUPPER leaves Z16–Z31 alone; SSE code cannot reach them, so they
// cost no transition penalty.
#define ZSIGN Z16
#define ZLOG2E Z17
#define ZKMIN Z18
#define ZKMAX Z19
#define ZLN2U Z20
#define ZLN2L Z21
#define ZSIXTEENTH Z22
#define ZC8 Z23
#define ZC7 Z24
#define ZC6 Z25
#define ZC5 Z26
#define ZC4 Z27
#define ZC3 Z28
#define ZHALF Z29
#define ZONE Z30
#define ZTWO Z31

#define CONST8 \
	VMOVUPD SIGN, ZSIGN; \
	VMOVUPD LOG2E, ZLOG2E; \
	VMOVUPD KMIN, ZKMIN; \
	VMOVUPD KMAX, ZKMAX; \
	VMOVUPD LN2U, ZLN2U; \
	VMOVUPD LN2L, ZLN2L; \
	VMOVUPD SIXTEENTH, ZSIXTEENTH; \
	VMOVUPD C8, ZC8; \
	VMOVUPD C7, ZC7; \
	VMOVUPD C6, ZC6; \
	VMOVUPD C5, ZC5; \
	VMOVUPD C4, ZC4; \
	VMOVUPD C3, ZC3; \
	VMOVUPD HALF, ZHALF; \
	VMOVUPD ONE, ZONE; \
	VMOVUPD TWO, ZTWO

// EXPK8 and EXPR8 are EXPV on eight ZMM lanes, split after its range
// check and branch, with AVX-512's own rounding, compare and scale ops in
// place of the int32 round trip and the constants in registers (CONST8);
// they give the same bits:
//   - k = VRNDSCALEPD(x·log2e) rounds per MXCSR (imm bit 2), as
//     VCVTPD2DQ does, so every lane with |x·log2e| < 2^31 gets the
//     same integer k; every other lane fails the range check on both
//     paths, NaN included, since its ordered compares are false.
//   - Where x·log2e is in (-0.5, 0), k is -0 where the int path has +0.
//     That flips only the sign of the exact zero k·ln2: x - (±0) = x
//     for x ≠ 0, and for x = ±0 both paths end at exactly 1.
//   - VSCALEFPD is e·2^k rounded once, as the multiply by the normal
//     power of two 2^k (k+1023 in [1, 2046]) is, subnormal results
//     included: Go's MXCSR sets neither DAZ nor FTZ.
// The range check is two ordered compares into K1 (k >= -1022, then
// k <= 1023 under that mask) and one KORTESTB (AVX512DQ) and branch.
// Between k and the scale, EXPR8 is EXPV's ops on the registers.
// EXPK8 leaves k in V1; EXPR8 clobbers V2.
#define EXPK8(V0, V1, fail) \
	VMULPD ZLOG2E, V0, V1; \
	VRNDSCALEPD $4, V1, V1; \
	VCMPPD $0x1d, ZKMIN, V1, K1; \
	VCMPPD $0x12, ZKMAX, V1, K1, K1; \
	KORTESTB K1, K1; \
	JCC fail

#define EXPR8(V0, V1, V2) \
	VFNMADD231PD ZLN2U, V1, V0; \
	VFNMADD231PD ZLN2L, V1, V0; \
	VMULPD ZSIXTEENTH, V0, V0; \
	VMOVAPD ZC8, V2; \
	VFMADD213PD ZC7, V0, V2; \
	VFMADD213PD ZC6, V0, V2; \
	VFMADD213PD ZC5, V0, V2; \
	VFMADD213PD ZC4, V0, V2; \
	VFMADD213PD ZC3, V0, V2; \
	VFMADD213PD ZHALF, V0, V2; \
	VFMADD213PD ZONE, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD ZTWO, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD ZTWO, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD ZTWO, V0, V2; \
	VMULPD V2, V0, V0; \
	VADDPD ZTWO, V0, V2; \
	VFMADD213PD ZONE, V2, V0; \
	VSCALEFPD V1, V0, V0

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
// sigmoidAVX2 on eight lanes: the negate, the add and the divide in ZMM
// registers, EXPK8 and EXPR8 for EXP4, for groups 8-element groups.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-24
	MOVQ ys+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX
	CONST8

sig8loop:
	CMPQ AX, CX
	JGE sig8done
	VMOVUPD (SI), Z0
	VXORPD ZSIGN, Z0, Z0             // x = -y
	EXPK8(Z0, Z1, sig8done)
	EXPR8(Z0, Z1, Z2)
	VADDPD ZONE, Z0, Z0              // 1 + exp(-y)
	VDIVPD Z0, ZONE, Z0              // 1 / (1 + exp(-y))
	VMOVUPD Z0, (SI)
	ADDQ $64, SI
	INCQ AX
	JMP sig8loop

sig8done:
	SHLQ $3, AX
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// func expAVX512(ys *float64, groups int) int
//
// expAVX2 on eight lanes: EXPK8 and EXPR8 for groups 8-element groups.
TEXT ·expAVX512(SB), NOSPLIT, $0-24
	MOVQ ys+0(FP), SI
	MOVQ groups+8(FP), CX
	XORQ AX, AX
	CONST8

exp8loop:
	CMPQ AX, CX
	JGE exp8done
	VMOVUPD (SI), Z0
	EXPK8(Z0, Z1, exp8done)
	EXPR8(Z0, Z1, Z2)
	VMOVUPD Z0, (SI)
	ADDQ $64, SI
	INCQ AX
	JMP exp8loop

exp8done:
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

// func gatherAdd16AVX2(par, prods *float64, card, cols, k, rows int, dst *float64)
//
// The layer-0 sums of rows consecutive prefixes of one axis's level
// (see RangeNet): row r is setting (k+r) mod card under parent
// (k+r)/card, whose 16 sums are par's row of that number, and dst's row
// r is the parent's sums plus the setting's cols product rows (prods
// holds card settings of cols rows of 16), added in ascending column
// order with the sums as the first operand, each VADDPD rounded on its
// own: the adds of sumBatch and hidden16AVX2f64 for those columns.
// rows and cols must be >= 1.
TEXT ·gatherAdd16AVX2(SB), NOSPLIT, $0-56
	MOVQ par+0(FP), SI
	MOVQ prods+8(FP), DI
	MOVQ card+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ k+32(FP), R10
	MOVQ rows+40(FP), CX
	MOVQ dst+48(FP), DX
	MOVQ R9, R11
	SHLQ $7, R11             // bytes per setting: cols rows × 16 doubles
	MOVQ R10, BX
	IMULQ R11, BX
	ADDQ DI, BX              // setting k's products

garow:
	VMOVUPD (SI), Y0         // the parent's sums
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	MOVQ R9, R12

gacol:
	VADDPD (BX), Y0, Y0      // sums += products (rounded)
	VADDPD 32(BX), Y1, Y1
	VADDPD 64(BX), Y2, Y2
	VADDPD 96(BX), Y3, Y3
	ADDQ $128, BX
	DECQ R12
	JNZ gacol

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	INCQ R10
	CMPQ R10, R8
	JLT ganext
	XORQ R10, R10            // the next parent's setting 0
	MOVQ DI, BX
	ADDQ $128, SI

ganext:
	DECQ CX
	JNZ garow
	VZEROUPPER
	RET

// func gatherSigmoid16AVX512(par, prods *float64, card, cols, k, rows int, dst *float64) int
//
// gatherAdd16AVX2 in two ZMM halves of eight units, then the sigmoid of
// sigmoidAVX512 on both halves: the negate, EXPK8 on each half, each
// with its own compare-and-branch, EXPR8 on each half, then 1+e and the
// divide. It returns the number of rows stored, stopping before the
// first row with a lane EXPK8 leaves to the scalar path.
TEXT ·gatherSigmoid16AVX512(SB), NOSPLIT, $0-64
	MOVQ par+0(FP), SI
	MOVQ prods+8(FP), DI
	MOVQ card+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ k+32(FP), R10
	MOVQ rows+40(FP), CX
	MOVQ dst+48(FP), R13
	MOVQ R9, R11
	SHLQ $7, R11
	MOVQ R10, BX
	IMULQ R11, BX
	ADDQ DI, BX
	XORQ AX, AX
	CONST8

gsrow:
	CMPQ AX, CX
	JGE gsdone
	VMOVUPD (SI), Z0         // units 0–7: the parent's sums
	VMOVUPD 64(SI), Z8       // units 8–15
	MOVQ BX, R14
	MOVQ R9, R12

gscol:
	VADDPD (R14), Z0, Z0     // sums += products (rounded)
	VADDPD 64(R14), Z8, Z8
	ADDQ $128, R14
	DECQ R12
	JNZ gscol

	VXORPD ZSIGN, Z0, Z0     // x = -y
	VXORPD ZSIGN, Z8, Z8
	EXPK8(Z0, Z1, gsdone)
	EXPK8(Z8, Z9, gsdone)
	EXPR8(Z0, Z1, Z2)
	EXPR8(Z8, Z9, Z10)
	VADDPD ZONE, Z0, Z0      // 1 + exp(-y)
	VADDPD ZONE, Z8, Z8
	VDIVPD Z0, ZONE, Z0      // 1 / (1 + exp(-y))
	VDIVPD Z8, ZONE, Z8
	VMOVUPD Z0, (R13)
	VMOVUPD Z8, 64(R13)
	ADDQ $128, R13
	INCQ AX
	MOVQ R14, BX             // the next setting's products
	INCQ R10
	CMPQ R10, R8
	JLT gsrow
	XORQ R10, R10
	MOVQ DI, BX
	ADDQ $128, SI
	JMP gsrow

gsdone:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func affineAVX2(ys *float64, groups int, lo, span float64)
//
// ys[i] = lo + ys[i]·span for groups 4-element groups: one VMULPD and
// one VADDPD with lo as the first operand, each rounded on its own,
// never fused, as encoding.Scaler.Unscale's Lo + v*(Hi-Lo).
TEXT ·affineAVX2(SB), NOSPLIT, $0-32
	MOVQ ys+0(FP), SI
	MOVQ groups+8(FP), CX
	VBROADCASTSD lo+16(FP), Y1
	VBROADCASTSD span+24(FP), Y2

afloop:
	TESTQ CX, CX
	JZ afdone
	VMULPD (SI), Y2, Y0      // y·span (rounded)
	VADDPD Y0, Y1, Y0        // lo + y·span (rounded)
	VMOVUPD Y0, (SI)
	ADDQ $32, SI
	DECQ CX
	JMP afloop

afdone:
	VZEROUPPER
	RET

// func momentsAVX2(preds *float64, members, cnt, groups int, fm float64, mean, variance *float64)
//
// The ensemble's mean and variance for groups groups of four rows of
// preds, members × cnt predictions with member m's column at m·cnt, one
// row per YMM lane: the member-order sum from +0 (the sum as each
// VADDPD's first operand), one VDIVPD by fm, float64(members), for the
// mean, stored unless mean is nil, then, unless variance is nil, the
// member-order sum of squared deviations (p − mean, its square, then
// the add, each rounded on its own, never fused) from +0 and one VDIVPD
// by fm. R8 holds the member count, R9 the byte stride between members.
TEXT ·momentsAVX2(SB), NOSPLIT, $0-56
	MOVQ preds+0(FP), SI
	MOVQ members+8(FP), R8
	MOVQ cnt+16(FP), R9
	SHLQ $3, R9
	MOVQ groups+24(FP), CX
	VBROADCASTSD fm+32(FP), Y15
	MOVQ mean+40(FP), DX
	MOVQ variance+48(FP), DI

mo4loop:
	TESTQ CX, CX
	JZ mo4done
	VXORPD Y0, Y0, Y0
	MOVQ SI, R10
	MOVQ R8, R11

mo4sum:
	VADDPD (R10), Y0, Y0     // sum += p (rounded)
	ADDQ R9, R10
	DECQ R11
	JNZ mo4sum
	VDIVPD Y15, Y0, Y1       // mean = sum / members
	TESTQ DX, DX
	JZ mo4nomean
	VMOVUPD Y1, (DX)
	ADDQ $32, DX

mo4nomean:
	TESTQ DI, DI
	JZ mo4next
	VXORPD Y2, Y2, Y2
	MOVQ SI, R10
	MOVQ R8, R11

mo4dev:
	VMOVUPD (R10), Y3
	VSUBPD Y1, Y3, Y3        // d = p - mean (rounded)
	VMULPD Y3, Y3, Y3        // d·d (rounded)
	VADDPD Y3, Y2, Y2        // ss += d·d (rounded)
	ADDQ R9, R10
	DECQ R11
	JNZ mo4dev
	VDIVPD Y15, Y2, Y2       // variance = ss / members
	VMOVUPD Y2, (DI)
	ADDQ $32, DI

mo4next:
	ADDQ $32, SI
	DECQ CX
	JMP mo4loop

mo4done:
	VZEROUPPER
	RET
