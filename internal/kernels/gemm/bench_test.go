package gemm

import (
	"testing"

	"repro/internal/lcg"
	"repro/internal/tensor"
)

func benchGEMM(b *testing.B, n int, f func(d *caseData) *tensor.Matrix) {
	g := lcg.New(1)
	d := &caseData{a: tensor.NewMatrix(n, n), b: tensor.NewMatrix(n, n)}
	g.Fill(d.a.Data)
	g.Fill(d.b.Data)
	b.SetBytes(int64(2 * n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(d)
	}
}

func BenchmarkMultiplyMMA128(b *testing.B) { benchGEMM(b, 128, (*caseData).multiplyMMA) }
func BenchmarkMultiplyBaseline128(b *testing.B) {
	benchGEMM(b, 128, func(d *caseData) *tensor.Matrix { return multiplyBaseline(d.a, d.b) })
}
