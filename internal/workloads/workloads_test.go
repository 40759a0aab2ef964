package workloads

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tta"
)

func TestCRC16MatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		data := make([]byte, n)
		words := make([]uint16, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
			words[i] = uint16(data[i])
		}
		init := uint16(rng.Intn(1 << 16))
		g, err := CRC16(n, 0x20)
		if err != nil {
			t.Fatal(err)
		}
		out, err := program.Evaluate(g, []uint64{uint64(init)}, MemoryFor(0x20, words))
		if err != nil {
			t.Fatal(err)
		}
		if uint16(out[0]) != CRC16Golden(init, data) {
			t.Fatalf("crc(%x, init=%#x) = %#x, want %#x", data, init, out[0], CRC16Golden(init, data))
		}
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/ARC of "123456789" with init 0 is the classic check value
	// 0xBB3D.
	data := []byte("123456789")
	if got := CRC16Golden(0, data); got != 0xBB3D {
		t.Fatalf("golden CRC of check string = %#x, want 0xBB3D", got)
	}
	words := make([]uint16, len(data))
	for i, b := range data {
		words[i] = uint16(b)
	}
	g, err := CRC16(len(data), 0x10)
	if err != nil {
		t.Fatal(err)
	}
	out, err := program.Evaluate(g, []uint64{0}, MemoryFor(0x10, words))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xBB3D {
		t.Fatalf("kernel CRC = %#x, want 0xBB3D", out[0])
	}
}

func TestVecMaxMatchesGolden(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		g, err := VecMax(len(raw), 0x40)
		if err != nil {
			return false
		}
		out, err := program.Evaluate(g, nil, MemoryFor(0x40, raw))
		if err != nil {
			return false
		}
		return uint16(out[0]) == VecMaxGolden(raw)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVecMaxOddAndDuplicates(t *testing.T) {
	data := []uint16{7, 7, 3, 9, 9}
	g, err := VecMax(len(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := program.Evaluate(g, nil, MemoryFor(0, data))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 9 {
		t.Fatalf("max = %d, want 9", out[0])
	}
}

func TestChecksumMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := make([]uint16, 10)
	for i := range data {
		data[i] = uint16(rng.Intn(1 << 16))
	}
	g, err := Checksum(len(data), 0x80)
	if err != nil {
		t.Fatal(err)
	}
	out, err := program.Evaluate(g, nil, MemoryFor(0x80, data))
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := ChecksumGolden(data)
	if uint16(out[0]) != s1 || uint16(out[1]) != s2 {
		t.Fatalf("checksum (%#x,%#x), want (%#x,%#x)", out[0], out[1], s1, s2)
	}
}

func TestKernelsRejectDegenerateSizes(t *testing.T) {
	if _, err := CRC16(0, 0); err == nil {
		t.Error("CRC16(0) accepted")
	}
	if _, err := VecMax(1, 0); err == nil {
		t.Error("VecMax(1) accepted")
	}
	if _, err := Checksum(0, 0); err == nil {
		t.Error("Checksum(0) accepted")
	}
}

func TestWorkloadsRunOnFigure9TTA(t *testing.T) {
	arch := tta.Figure9()
	rng := rand.New(rand.NewSource(5))
	data := make([]uint16, 8)
	for i := range data {
		data[i] = uint16(rng.Intn(1 << 16))
	}

	cases := []struct {
		name   string
		build  func() (*program.Graph, error)
		inputs []uint64
		check  func(out []uint64) bool
	}{
		{
			"crc16",
			func() (*program.Graph, error) { return CRC16(4, 0x30) },
			[]uint64{0xFFFF},
			func(out []uint64) bool {
				bytes := []byte{byte(data[0]), byte(data[1]), byte(data[2]), byte(data[3])}
				return uint16(out[0]) == CRC16Golden(0xFFFF, bytes)
			},
		},
		{
			"vecmax",
			func() (*program.Graph, error) { return VecMax(8, 0x30) },
			nil,
			func(out []uint64) bool { return uint16(out[0]) == VecMaxGolden(data) },
		},
		{
			"checksum",
			func() (*program.Graph, error) { return Checksum(8, 0x30) },
			nil,
			func(out []uint64) bool {
				s1, s2 := ChecksumGolden(data)
				return uint16(out[0]) == s1 && uint16(out[1]) == s2
			},
		},
	}
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := sched.ScheduleContext(context.Background(), g, arch, sched.Options{})
		if err != nil {
			t.Fatalf("%s: schedule: %v", c.name, err)
		}
		out, err := sim.Run(res, c.inputs, MemoryFor(0x30, data), sim.Options{Verify: true})
		if err != nil {
			t.Fatalf("%s: sim: %v", c.name, err)
		}
		if !c.check(out) {
			t.Fatalf("%s: wrong TTA result %v", c.name, out)
		}
		t.Logf("%s on figure 9: %d cycles, %d moves (%v)", c.name, res.Cycles, len(res.Moves), g.Stats())
	}
}

func TestOperationMixesDiffer(t *testing.T) {
	// The point of multiple workloads: distinct resource profiles.
	crc, _ := CRC16(4, 0)
	vm, _ := VecMax(8, 0)
	cs, _ := Checksum(8, 0)
	if vm.Stats().CMP == 0 {
		t.Error("VecMax should exercise the comparator")
	}
	if crc.Stats().CMP != 0 {
		t.Error("CRC16 should not need the comparator")
	}
	ld := cs.Stats().Loads
	if ld != 8 {
		t.Errorf("Checksum loads %d, want 8", ld)
	}
	ratioCRC := float64(crc.Stats().ALU) / float64(crc.Stats().Loads)
	ratioCS := float64(cs.Stats().ALU) / float64(ld)
	if ratioCRC <= ratioCS {
		t.Errorf("CRC should be far more ALU-bound than Checksum (%.1f vs %.1f)", ratioCRC, ratioCS)
	}
}

func TestCountBelowMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		data := make([]uint16, n)
		for i := range data {
			data[i] = uint16(rng.Intn(1 << 16))
		}
		thr := uint16(rng.Intn(1 << 16))
		g, err := CountBelow(n)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []uint64{uint64(thr)}
		for _, v := range data {
			inputs = append(inputs, uint64(v))
		}
		out, err := program.Evaluate(g, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if uint16(out[0]) != CountBelowGolden(thr, data) {
			t.Fatalf("count(%v < %d) = %d, want %d", data, thr, out[0], CountBelowGolden(thr, data))
		}
	}
	if _, err := CountBelow(1); err == nil {
		t.Error("CountBelow(1) accepted")
	}
}

func TestVecMaxRegMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		data := make([]uint16, n)
		inputs := make([]uint64, n)
		for i := range data {
			data[i] = uint16(rng.Intn(1 << 16))
			inputs[i] = uint64(data[i])
		}
		g, err := VecMaxReg(n)
		if err != nil {
			t.Fatal(err)
		}
		out, err := program.Evaluate(g, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if uint16(out[0]) != VecMaxGolden(data) {
			t.Fatalf("maxreg(%v) = %d, want %d", data, out[0], VecMaxGolden(data))
		}
	}
	if _, err := VecMaxReg(1); err == nil {
		t.Error("VecMaxReg(1) accepted")
	}
}
