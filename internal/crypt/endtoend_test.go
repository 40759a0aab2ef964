package crypt

import (
	"context"
	"testing"

	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

// TestFullCryptHashOnTTA is the flagship end-to-end experiment: all 400
// DES rounds of one crypt(3) evaluation (16 rounds x 25 iterations) are
// executed as move programs on the figure-9 TTA, with every transported
// value verified against the dataflow reference. The assembled 64-bit
// result must equal the direct software crypt core, proving the scheduled
// workload *is* the paper's Crypt application, and the summed schedule
// length is the measured (not extrapolated) execution time.
func TestFullCryptHashOnTTA(t *testing.T) {
	arch := tta.Figure9()
	kernel, err := BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleContext(context.Background(), kernel, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := MemoryImage()
	ks := KeySchedule(KeyFromPassword("s3cret"))

	// crypt(3): 25 iterations of DES over the all-zero block. IP(0) = 0,
	// and between iterations IP cancels FP, so the block only needs the
	// inter-iteration half swap.
	var l, r uint32
	totalCycles := 0
	for iter := 0; iter < Iterations; iter++ {
		for round := 0; round < 16; round++ {
			out, err := sim.Run(res, KernelInputs(l, r, ks[round:round+1]), mem, sim.Options{Verify: true})
			if err != nil {
				t.Fatalf("iter %d round %d: %v", iter, round, err)
			}
			l, r = KernelOutputs(out)
			totalCycles += res.Cycles
		}
		l, r = r, l // the final swap of each DES iteration
	}
	gotBlock := FinalPermutation(r, l) // halves swapped back: FP(swap(l,r))

	var wantBlock uint64
	for i := 0; i < Iterations; i++ {
		wantBlock = EncryptBlock(wantBlock, &ks, 0)
	}
	if gotBlock != wantBlock {
		t.Fatalf("TTA crypt produced %016X, software core %016X", gotBlock, wantBlock)
	}
	t.Logf("full crypt(3) on the figure-9 TTA: %d cycles over %d rounds (%d cycles/round), result %016X",
		totalCycles, RoundsPerHash, res.Cycles, gotBlock)
}

// TestKernelIterationChainingMatchesEncryptBlock pins down the swap
// conventions used above on a single DES iteration.
func TestKernelIterationChainingMatchesEncryptBlock(t *testing.T) {
	ks := KeySchedule(0x0123456789ABCDEF)
	l, r := InitialPermutation(0) // zero block
	if l != 0 || r != 0 {
		t.Fatalf("IP(0) = (%08X,%08X), want zeros", l, r)
	}
	g, err := BuildRoundKernel(16)
	if err != nil {
		t.Fatal(err)
	}
	out, err := program.Evaluate(g, KernelInputs(l, r, ks[:]), MemoryImage())
	if err != nil {
		t.Fatal(err)
	}
	gl, gr := KernelOutputs(out)
	if got, want := FinalPermutation(gl, gr), EncryptBlock(0, &ks, 0); got != want {
		t.Fatalf("FP over kernel halves = %016X, EncryptBlock = %016X", got, want)
	}
}

// TestPermutationsInverse checks FP = IP^-1 through the exported helpers.
func TestPermutationsInverse(t *testing.T) {
	for _, block := range []uint64{0, 0x0123456789ABCDEF, 0xFFFFFFFFFFFFFFFF, 0xDEADBEEFCAFEF00D} {
		l, r := InitialPermutation(block)
		// FinalPermutation applies FP to (R||L) pre-swapped; to invert IP
		// directly, present the halves swapped.
		if got := FinalPermutation(r, l); got != block {
			t.Fatalf("FP(IP(%016X)) = %016X", block, got)
		}
	}
}
