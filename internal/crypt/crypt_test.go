package crypt

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

// TestDESKnownVectors checks the classic FIPS-era test vectors; any error
// in the permutation or S-box tables fails these.
func TestDESKnownVectors(t *testing.T) {
	cases := []struct{ key, pt, ct uint64 }{
		// The canonical worked example (Trappe/Washington, countless lecture
		// notes): key 133457799BBCDFF1, plaintext 0123456789ABCDEF.
		{0x133457799BBCDFF1, 0x0123456789ABCDEF, 0x85E813540F0AB405},
		// All-zero key and block.
		{0x0000000000000000, 0x0000000000000000, 0x8CA64DE9C1B123A7},
	}
	for _, c := range cases {
		if got := Encrypt(c.key, c.pt, 0); got != c.ct {
			t.Errorf("DES(%016X, %016X) = %016X, want %016X", c.key, c.pt, got, c.ct)
		}
	}
}

func TestDESAvalanche(t *testing.T) {
	// Flipping one plaintext bit must change ~half the ciphertext bits.
	base := Encrypt(0x133457799BBCDFF1, 0x0123456789ABCDEF, 0)
	flip := Encrypt(0x133457799BBCDFF1, 0x0123456789ABCDEF^1, 0)
	diff := popcount64(base ^ flip)
	if diff < 16 || diff > 48 {
		t.Errorf("avalanche too weak: %d differing bits", diff)
	}
}

func popcount64(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func TestSaltZeroIsPlainDES(t *testing.T) {
	ks := KeySchedule(0x0123456789ABCDEF)
	r := uint32(0xDEADBEEF)
	if Feistel(r, ks[0], 0) != Feistel(r, ks[0], 0) {
		t.Fatal("nondeterministic feistel")
	}
	// With a nonzero salt the function must differ for some input (inputs
	// must be asymmetric: a period-24 expansion makes the swap a no-op).
	differs := false
	for i := 0; i < 32 && !differs; i++ {
		rr := uint32(0x12345678) + uint32(i)*0x01003157
		if Feistel(rr, ks[0], 0x0ABC) != Feistel(rr, ks[0], 0) {
			differs = true
		}
	}
	if !differs {
		t.Error("salt perturbation has no effect")
	}
}

func TestSaltSwapInvolution(t *testing.T) {
	// Applying the salt perturbation twice restores the expansion.
	er := uint64(0x0000FACEB00C)
	salt := uint64(0x5A5)
	t1 := (er>>24 ^ er) & salt
	er1 := er ^ (t1 | t1<<24)
	t2 := (er1>>24 ^ er1) & salt
	er2 := er1 ^ (t2 | t2<<24)
	if er2 != er {
		t.Fatalf("salt swap not an involution: %012X -> %012X", er, er2)
	}
}

func TestHashFormatAndDeterminism(t *testing.T) {
	h1, err := Hash("password", "ab")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash("password", "ab")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("nondeterministic hash: %q vs %q", h1, h2)
	}
	if len(h1) != 13 || !strings.HasPrefix(h1, "ab") {
		t.Fatalf("malformed hash %q", h1)
	}
	for _, c := range []byte(h1) {
		if b64Value(c) < 0 {
			t.Fatalf("hash %q contains non-alphabet byte %q", h1, c)
		}
	}
}

func TestHashSensitivity(t *testing.T) {
	base, _ := Hash("password", "ab")
	diffPw, _ := Hash("passwore", "ab")
	diffSalt, _ := Hash("password", "ac")
	if base == diffPw {
		t.Error("password change did not change hash")
	}
	if base == diffSalt {
		t.Error("salt change did not change hash")
	}
	// Only the first 8 password characters matter (classic crypt).
	long1, _ := Hash("12345678extra", "zz")
	long2, _ := Hash("12345678other", "zz")
	if long1 != long2 {
		t.Error("characters beyond 8 affected the hash")
	}
}

func TestHashMatchesDirectDESIterations(t *testing.T) {
	// With a zero salt ("..") the hash must equal 25 plain-DES encryptions
	// of the zero block — an internal consistency check between the crypt
	// wrapper and the DES core.
	bits, err := SaltBits("..")
	if err != nil {
		t.Fatal(err)
	}
	if bits != 0 {
		t.Fatalf("salt %q decodes to %d, want 0", "..", bits)
	}
	ks := KeySchedule(KeyFromPassword("secret"))
	var block uint64
	for i := 0; i < Iterations; i++ {
		block = EncryptBlock(block, &ks, 0)
	}
	h, err := Hash("secret", "..")
	if err != nil {
		t.Fatal(err)
	}
	// Decode the 11 radix-64 characters back to 64 bits and compare.
	var dec uint64
	for i := 0; i < 11; i++ {
		v := b64Value(h[2+i])
		if v < 0 {
			t.Fatalf("bad hash char %q", h[2+i])
		}
		shift := 64 - 6*(i+1)
		if shift >= 0 {
			dec |= uint64(v) << uint(shift)
		} else {
			dec |= uint64(v) >> uint(-shift)
		}
	}
	if dec != block {
		t.Fatalf("hash encodes %016X, direct iteration gives %016X", dec, block)
	}
}

func TestSaltBitsValidation(t *testing.T) {
	if _, err := SaltBits("a"); err == nil {
		t.Error("1-char salt accepted")
	}
	if _, err := SaltBits("!!"); err == nil {
		t.Error("invalid salt characters accepted")
	}
	v, err := SaltBits("zz")
	if err != nil {
		t.Fatal(err)
	}
	if v != uint32(63|63<<6) {
		t.Fatalf("salt zz = %#x, want %#x", v, 63|63<<6)
	}
}

func TestKeyFromPassword(t *testing.T) {
	// "A" = 0x41; low 7 bits shifted left once in the top key byte.
	k := KeyFromPassword("A")
	if k>>56 != uint64(0x41)<<1 {
		t.Fatalf("key top byte %#x, want %#x", k>>56, uint64(0x41)<<1)
	}
	if KeyFromPassword("") != 0 {
		t.Fatal("empty password key not zero")
	}
}

func TestKernelMatchesGoldenSingleRound(t *testing.T) {
	g, err := BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	mem := MemoryImage()
	for trial := 0; trial < 64; trial++ {
		l := rng.Uint32()
		r := rng.Uint32()
		k := uint64(rng.Uint32())<<16 ^ uint64(rng.Uint32()) // 48-bit-ish
		k &= 0xFFFFFFFFFFFF
		out, err := program.Evaluate(g, KernelInputs(l, r, []uint64{k}), mem)
		if err != nil {
			t.Fatal(err)
		}
		gl, gr := KernelOutputs(out)
		wl, wr := GoldenRounds(l, r, []uint64{k})
		if gl != wl || gr != wr {
			t.Fatalf("round(l=%08X r=%08X k=%012X): kernel (%08X,%08X), want (%08X,%08X)",
				l, r, k, gl, gr, wl, wr)
		}
	}
}

func TestKernelMatchesGoldenSixteenRounds(t *testing.T) {
	g, err := BuildRoundKernel(16)
	if err != nil {
		t.Fatal(err)
	}
	ks := KeySchedule(0x133457799BBCDFF1)
	l := uint32(0x01234567)
	r := uint32(0x89ABCDEF)
	out, err := program.Evaluate(g, KernelInputs(l, r, ks[:]), MemoryImage())
	if err != nil {
		t.Fatal(err)
	}
	gl, gr := KernelOutputs(out)
	wl, wr := GoldenRounds(l, r, ks[:])
	if gl != wl || gr != wr {
		t.Fatalf("16 rounds: kernel (%08X,%08X), want (%08X,%08X)", gl, gr, wl, wr)
	}
}

func TestKernelRunsOnFigure9TTA(t *testing.T) {
	// End-to-end: schedule the crypt round kernel on the paper's selected
	// architecture and simulate it move by move.
	g, err := BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	arch := tta.Figure9()
	res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ks := KeySchedule(KeyFromPassword("password"))
	l, r := uint32(0), uint32(0)
	inputs := KernelInputs(l, r, ks[:1])
	out, err := sim.Run(res, inputs, MemoryImage(), sim.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	gl, gr := KernelOutputs(out)
	wl, wr := GoldenRounds(l, r, ks[:1])
	if gl != wl || gr != wr {
		t.Fatalf("TTA round: (%08X,%08X), want (%08X,%08X)", gl, gr, wl, wr)
	}
	t.Logf("crypt round on figure-9 TTA: %d cycles, %d moves, %d spills",
		res.Cycles, len(res.Moves), res.Spills)
}

func TestMemoryImageBelowSpillRegion(t *testing.T) {
	for addr := range MemoryImage() {
		if addr >= sched.SpillBase {
			t.Fatalf("SP table address %#x collides with spill region", addr)
		}
	}
}

func TestKernelStats(t *testing.T) {
	g, err := BuildRoundKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Loads != 16 {
		t.Errorf("round kernel has %d loads, want 16 (8 S-boxes x 2 word planes)", st.Loads)
	}
	if st.ALU < 60 {
		t.Errorf("round kernel has only %d ALU ops; expansion/key mixing missing?", st.ALU)
	}
	if st.Stores != 0 {
		t.Errorf("round kernel should not store, has %d", st.Stores)
	}
}

func TestBuildCryptKernelLoopControl(t *testing.T) {
	g, err := BuildCryptKernel(2)
	if err != nil {
		t.Fatal(err)
	}
	ks := KeySchedule(0x0123456789ABCDEF)
	// Inputs: l, r, counter, then 3 key words per round.
	inputs := []uint64{0x1111, 0x2222, 0x3333, 0x4444, 14}
	for _, k := range ks[:2] {
		inputs = append(inputs, k>>32&0xFFFF, k>>16&0xFFFF, k&0xFFFF)
	}
	out, err := program.Evaluate(g, inputs, MemoryImage())
	if err != nil {
		t.Fatal(err)
	}
	wl, wr := GoldenRounds(0x11112222, 0x33334444, ks[:2])
	gl := uint32(out[0])<<16 | uint32(out[1])
	gr := uint32(out[2])<<16 | uint32(out[3])
	if gl != wl || gr != wr {
		t.Fatalf("loop kernel rounds wrong: (%08X,%08X) vs (%08X,%08X)", gl, gr, wl, wr)
	}
	if out[4] != 16 {
		t.Errorf("counter = %d, want 16 (14 + 2 rounds)", out[4])
	}
	if out[5] != 1 {
		t.Errorf("loop-exit predicate = %d, want 1 at counter 16", out[5])
	}
	if _, err := BuildCryptKernel(0); err == nil {
		t.Error("0-round loop kernel accepted")
	}
}

func TestHashCycles(t *testing.T) {
	if got := HashCycles(100); got != 100*RoundsPerHash {
		t.Fatalf("HashCycles(100)=%d, want %d", got, 100*RoundsPerHash)
	}
}
