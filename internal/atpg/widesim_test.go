package atpg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// wideTestCircuits builds the property-test corpus: random reconvergent
// DAGs plus the real ALU, the same shapes the cone A/B test uses.
func wideTestCircuits(t *testing.T, rng *rand.Rand) []*netlist.Netlist {
	t.Helper()
	circuits := []*netlist.Netlist{buildSmall(t)}
	for c := 0; c < 3; c++ {
		b := netlist.NewBuilder("rand")
		nets := b.InputBus("in", 8)
		for i := 0; i < 150; i++ {
			a := nets[rng.Intn(len(nets))]
			x := nets[rng.Intn(len(nets))]
			var o netlist.Net
			switch rng.Intn(7) {
			case 0:
				o = b.And(a, x)
			case 1:
				o = b.Or(a, x)
			case 2:
				o = b.Xor(a, x)
			case 3:
				o = b.Nand(a, x)
			case 4:
				o = b.Nor(a, x)
			case 5:
				o = b.Not(a)
			default:
				o = b.Mux(a, x, nets[rng.Intn(len(nets))])
			}
			nets = append(nets, o)
		}
		for i := 0; i < 5; i++ {
			b.Output(fmt.Sprintf("o%d", i), nets[len(nets)-1-i*9])
		}
		n, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, n)
	}
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, alu.Comb, alu.Seq)
	return circuits
}

// TestWideDetectsMatches64LaneReference is the core width-invariance
// property: for random pattern sets, the 256- and 512-lane engines must
// report, per 64-pattern chunk, exactly the lane mask the 64-lane engine
// reports for that chunk — for every fault, including partial final
// chunks.
func TestWideDetectsMatches64LaneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for ci, n := range wideTestCircuits(t, rng) {
		u := NewUniverse(n)
		topo := newSimTopo(n)
		ref := newFaultSimFromTopo(topo, 64)
		for _, lanes := range []int{256, 512} {
			wide := newFaultSimFromTopo(topo, lanes)
			// Deliberately ragged: a full block, then a partial one.
			for _, np := range []int{lanes, lanes - 37} {
				pats := make([]Pattern, np)
				for k := range pats {
					p := make(Pattern, wide.NumControls())
					for i := range p {
						p[i] = uint8(rng.Intn(2))
					}
					pats[k] = p
				}
				wide.loadBlock(pats)
				for _, f := range u.Faults {
					wm := wide.detectsMask(f)
					for start := 0; start < np; start += 64 {
						end := start + 64
						if end > np {
							end = np
						}
						ref.loadBlock(pats[start:end])
						rm := ref.detectsMask(f)
						if wm[start/64] != rm[0] {
							t.Fatalf("circuit %d lanes %d np %d fault %v chunk %d: wide %#x, 64-lane %#x",
								ci, lanes, np, f, start/64, wm[start/64], rm[0])
						}
					}
				}
			}
		}
	}
}

// TestRunIdenticalAcrossLaneWidthsAndWorkers asserts the PR's hard
// constraint end to end: the full ATPG result — patterns included — is a
// function of (netlist, seed) only, not of lane width or worker count.
func TestRunIdenticalAcrossLaneWidthsAndWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ci, n := range wideTestCircuits(t, rng) {
		var base *Result
		for _, lanes := range []int{0, 64, 256, 512} {
			for _, workers := range []int{1, 8} {
				res := runATPG(t, n, Config{Seed: 7, LaneWidth: lanes, Workers: workers})
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("circuit %d: LaneWidth=%d Workers=%d diverged:\n  %v\nvs\n  %v",
						ci, lanes, workers, res, base)
				}
			}
		}
	}
}

// TestWideDetectsZeroAllocWhenWarmed pins the zero-alloc contract of the
// hot path at every lane width, not just the 64-lane default.
func TestWideDetectsZeroAllocWhenWarmed(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	u := NewUniverse(n)
	topo := newSimTopo(n)
	rng := newRand(7)
	for _, lanes := range []int{64, 256, 512} {
		sim := newFaultSimFromTopo(topo, lanes)
		block := make([]Pattern, lanes)
		for k := range block {
			p := make(Pattern, sim.NumControls())
			for i := range p {
				p[i] = uint8(rng.Intn(2))
			}
			block[k] = p
		}
		sim.loadBlock(block)
		for _, f := range u.Faults {
			sim.detectsMask(f) // warm-up: grows the cone scratch buffers
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, f := range u.Faults {
				sim.detectsMask(f)
			}
		})
		if allocs != 0 {
			t.Fatalf("lanes=%d: detectsMask allocated %.1f times per sweep on a warmed engine; want 0", lanes, allocs)
		}
	}
}

// TestSharedTopoRaceStress drives many engines of mixed widths — plus
// PODEM engines — off one shared simTopo concurrently. Its value is under
// the tier-1 -race leg: every field of simTopo and netlist.Flat is
// read-shared across goroutines while per-engine value state is written.
func TestSharedTopoRaceStress(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	n := alu.Seq
	u := NewUniverse(n)
	topo := newSimTopo(n)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sim := newFaultSimFromTopo(topo, laneWidths[w%len(laneWidths)])
			block := make([]Pattern, sim.lanes())
			for k := range block {
				p := make(Pattern, sim.NumControls())
				for i := range p {
					p[i] = uint8(rng.Intn(2))
				}
				block[k] = p
			}
			sim.loadBlock(block)
			eng := newPodem(topo, 1000)
			for fi := w; fi < len(u.Faults); fi += 3 {
				sim.detectsMask(u.Faults[fi])
				eng.generate(u.Faults[fi])
			}
		}(w)
	}
	wg.Wait()
}

func TestResolveLaneWidth(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	small := buildSmall(t)
	for _, lanes := range laneWidths {
		got, err := resolveLaneWidth(lanes, small, NewUniverse(small))
		if err != nil || got != lanes {
			t.Fatalf("resolveLaneWidth(%d) = %d, %v", lanes, got, err)
		}
	}
	if _, err := resolveLaneWidth(128, small, NewUniverse(small)); err == nil {
		t.Fatal("LaneWidth 128 accepted; want error")
	} else {
		var lw *LaneWidthError
		if !errors.As(err, &lw) || lw.Width != 128 {
			t.Fatalf("LaneWidth 128 error = %v, want *LaneWidthError{128}", err)
		}
	}
	if got, _ := resolveLaneWidth(0, small, NewUniverse(small)); got != 64 {
		t.Fatalf("auto width %d for a trivial netlist, want 64", got)
	}
	if got, _ := resolveLaneWidth(0, alu.Seq, NewUniverse(alu.Seq)); got == 0 {
		t.Fatal("auto width unresolved for the ALU")
	}
	if _, err := RunContext(context.Background(), small, Config{Seed: 1, LaneWidth: 96}); err == nil {
		t.Fatal("RunContext accepted LaneWidth 96")
	}
}

// TestAutoLaneWidthClassAware pins the satellite fix: auto selection
// must not pick a width slower than 64 lanes on PODEM-bound classes.
// cmp16 is deep and sparse (64 lanes is fastest in BENCH_faultsim.json),
// register files are shallow and fault-dense (the wide-sim winners).
func TestAutoLaneWidthClassAware(t *testing.T) {
	lib := gatelib.NewLibrary()
	cases := []struct {
		name  string
		build func() (*gatelib.Component, error)
		want  int
	}{
		{"cmp16", func() (*gatelib.Component, error) { return lib.CMP(16) }, 64},
		{"alu16_cs", func() (*gatelib.Component, error) {
			return lib.ALU(gatelib.ALUConfig{Width: 16, Adder: gatelib.AdderCarrySelect})
		}, 64},
		{"ldst16", func() (*gatelib.Component, error) { return lib.LDST(16) }, 64},
		{"rf16x8_1w2r", func() (*gatelib.Component, error) {
			return lib.RF(gatelib.RFConfig{Width: 16, NumRegs: 8, NumIn: 1, NumOut: 2})
		}, 256},
		{"rf16x16_2w2r", func() (*gatelib.Component, error) {
			return lib.RF(gatelib.RFConfig{Width: 16, NumRegs: 16, NumIn: 2, NumOut: 2})
		}, 256},
	}
	for _, tc := range cases {
		comp, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := resolveLaneWidth(0, comp.Seq, NewUniverse(comp.Seq))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: auto lane width %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLaneMetricsUseActiveWidth pins the satellite fix: the lane_util
// denominator must be the active lane width, not a hardcoded 64, and the
// active width is published as its own gauge.
func TestLaneMetricsUseActiveWidth(t *testing.T) {
	alu, err := gatelib.NewALU(gatelib.ALUConfig{Width: 8, Adder: gatelib.AdderRipple})
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range laneWidths {
		reg := obs.NewRegistry()
		runATPG(t, alu.Seq, Config{Seed: 7, LaneWidth: lanes, Obs: reg})
		if got := reg.Gauge("atpg.faultsim.lane_width").Value(); got != float64(lanes) {
			t.Fatalf("lane_width gauge %v, want %d", got, lanes)
		}
		util := reg.Gauge("atpg.faultsim.lane_util").Value()
		if util <= 0 || util > 1 {
			t.Fatalf("lanes=%d: lane_util %v outside (0, 1]", lanes, util)
		}
		blocks := reg.Counter("atpg.faultsim.blocks").Value()
		used := reg.Counter("atpg.faultsim.lanes").Value()
		if want := float64(used) / float64(int64(lanes)*blocks); util != want {
			t.Fatalf("lanes=%d: lane_util %v, want lanes/(width*blocks) = %v", lanes, util, want)
		}
	}
}
