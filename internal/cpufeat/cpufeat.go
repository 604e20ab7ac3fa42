// Package cpufeat detects the few CPU features the optional
// vectorized kernels in this repo are gated on. Feature bits only ever
// select between implementations that are bit-identical by
// construction (see internal/ann), so detection can never change
// results — only speed.
//
// AVX2 selects the 16-unit layer kernel, the 1-unit output layer
// kernel over 16 inputs and the training step of networks with one
// 16-unit hidden layer, none of which fuses a multiply-add. AVX2
// together with FMA selects the vector sigmoid and exp, which repeat
// the fused multiply-adds of math.Exp's FMA branch and so are
// bit-identical to it only where that branch runs. AVX512 on top of
// them selects the 8-lane sigmoid, the same ops on twice the lanes.
package cpufeat

// AVX2 reports whether the CPU supports AVX2 and the OS saves the YMM
// register state (OSXSAVE + XCR0 bits 1 and 2). False on every
// non-amd64 architecture.
var AVX2 = hasAVX2()

// FMA reports whether the CPU supports AVX and FMA3 (CPUID.1:ECX bits
// 28 and 12) and the OS saves the YMM register state. It is the
// condition under which the Go runtime's math.Exp takes its fused
// multiply-add branch on amd64, unless GODEBUG turns the runtime's
// FMA off. False on every non-amd64 architecture.
var FMA = hasFMA()

// AVX512 reports whether the CPU supports AVX2, AVX512F and AVX512DQ
// (CPUID.7:EBX bits 16 and 17) and the OS saves the opmask and ZMM
// register state (XCR0 bits 5–7) on top of the YMM state. False on
// every non-amd64 architecture.
var AVX512 = hasAVX512()
