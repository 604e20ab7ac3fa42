package cpufeat

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (only valid when CPUID reports OSXSAVE).
func xgetbv() (eax, edx uint32)

// osSavesYMM reports whether the OS context-switches the YMM registers:
// CPUID reports OSXSAVE and XCR0 bits 1 (SSE state) and 2 (AVX state)
// are set.
func osSavesYMM() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 || !osSavesYMM() {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func hasFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, avx = 1 << 12, 1 << 28
	return ecx1&fma != 0 && ecx1&avx != 0 && osSavesYMM()
}

func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	const opmask, zmmHi256, hi16ZMM = 1 << 5, 1 << 6, 1 << 7
	if xcr0, _ := xgetbv(); xcr0&(opmask|zmmHi256|hi16ZMM) != opmask|zmmHi256|hi16ZMM {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512dq = 1 << 16, 1 << 17
	return ebx7&avx512f != 0 && ebx7&avx512dq != 0
}
