package cpu

import (
	"testing"

	"denovosync/internal/sim"
)

// benchRun drives one single-core workload to completion for b.
func benchRun(b *testing.B, fn func(*Thread)) {
	b.Helper()
	eng := sim.NewEngine()
	l1 := newFakeL1(eng, 1)
	core := NewCore(eng, 0, l1, nil)
	core.Spawn(nil, sim.NewRNG(1), fn)
	eng.Run(0)
	if !core.Finished() {
		b.Fatal("workload did not finish")
	}
}

// BenchmarkHandshakeMemOp measures the full round trip of a blocking
// memory operation: the thread's yield, the engine event, and the core's
// resume of the thread coroutine.
func BenchmarkHandshakeMemOp(b *testing.B) {
	benchRun(b, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Load(64)
		}
	})
}

// BenchmarkHandshakeCompute measures batched Compute calls interleaved
// with a flushing blocking op — the shape kernel driver loops produce.
// With batching the Computes cost one queue append each; the batch runs
// on the engine side within the Load's handshake.
func BenchmarkHandshakeCompute(b *testing.B) {
	benchRun(b, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.SetPhase(PhaseNonSynch)
			t.Compute(10)
			t.SetPhase(PhaseKernel)
			t.Load(64)
		}
	})
}

// BenchmarkHandshakeComputeEager is the same workload with batching
// disabled: every Compute/SetPhase pays its own handshake, as the
// reference implementation did. The gap to BenchmarkHandshakeCompute is
// the batching win.
func BenchmarkHandshakeComputeEager(b *testing.B) {
	defer func(old bool) { EagerOps = old }(EagerOps)
	EagerOps = true
	benchRun(b, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.SetPhase(PhaseNonSynch)
			t.Compute(10)
			t.SetPhase(PhaseKernel)
			t.Load(64)
		}
	})
}
