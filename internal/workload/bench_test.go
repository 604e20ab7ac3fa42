package workload

import "testing"

// BenchmarkWorkloadGeneration measures synthetic-trace construction:
// one 10,000-instruction equake trace per iteration, built directly so
// that Get's memo cache cannot answer it.
func BenchmarkWorkloadGeneration(b *testing.B) {
	p := profiles["equake"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := generate(p, 10000); tr.Len() != 10000 {
			b.Fatalf("generated %d instructions, want 10000", tr.Len())
		}
	}
}
