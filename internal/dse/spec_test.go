package dse

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jobspec"
)

func TestFromSpecZeroMatchesDefaultConfig(t *testing.T) {
	cfg, sel, err := FromSpec(jobspec.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != def.Width || cfg.Seed != def.Seed {
		t.Errorf("width/seed %d/%d, want %d/%d", cfg.Width, cfg.Seed, def.Width, def.Seed)
	}
	if !reflect.DeepEqual(cfg.Buses, def.Buses) ||
		!reflect.DeepEqual(cfg.ALUCounts, def.ALUCounts) ||
		!reflect.DeepEqual(cfg.CMPCounts, def.CMPCounts) ||
		!reflect.DeepEqual(cfg.RFSets, def.RFSets) {
		t.Error("zero spec must reproduce the default space")
	}
	if cfg.WorkloadReps != def.WorkloadReps {
		t.Errorf("reps %d, want %d", cfg.WorkloadReps, def.WorkloadReps)
	}
	if (sel != SelectionSpec{}) {
		t.Errorf("zero spec selection = %+v, want zero", sel)
	}
}

func TestFromSpecOverridesAndNormalizes(t *testing.T) {
	spec := jobspec.Spec{
		Workload:       "crc16",
		Buses:          []int{2, 1, 2},
		ALUs:           []int{3},
		Norm:           "chebyshev",
		WA:             2,
		DegradedPolicy: "exclude",
		Parallelism:    3,
	}
	cfg, sel, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Buses, []int{1, 2}) {
		t.Errorf("buses %v, want normalized [1 2]", cfg.Buses)
	}
	// The caller's slice must not be reordered by FromSpec.
	if !reflect.DeepEqual(spec.Buses, []int{2, 1, 2}) {
		t.Errorf("FromSpec mutated the caller's spec: %v", spec.Buses)
	}
	if !reflect.DeepEqual(cfg.ALUCounts, []int{3}) {
		t.Errorf("alus %v", cfg.ALUCounts)
	}
	if cfg.Workload == nil || !strings.HasPrefix(cfg.Workload.Name, "crc16") {
		t.Errorf("workload not applied: %+v", cfg.Workload)
	}
	if cfg.WorkloadReps != 1000 {
		t.Errorf("reps %d, want 1000", cfg.WorkloadReps)
	}
	if cfg.Parallelism != 3 {
		t.Errorf("parallelism %d, want 3", cfg.Parallelism)
	}
	want := SelectionSpec{Norm: "chebyshev", WA: 2, DegradedPolicy: "exclude"}
	if sel != want {
		t.Errorf("selection %+v, want %+v", sel, want)
	}
}

func TestFromSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range []jobspec.Spec{
		{Workload: "doom"},
		{Norm: "cosine"},
		{Parallelism: -1},
		{Buses: []int{0}},
	} {
		if _, _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec accepted %+v", spec)
		}
	}
}

func TestFromSpecExploresIdenticallyToDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("full exploration")
	}
	// A spec-built config over a reduced space must reproduce the
	// hand-built config's result exactly.
	specCfg, _, err := FromSpec(jobspec.Spec{Buses: []int{1, 2}, ALUs: []int{1}, CMPs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	handCfg, err := DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	handCfg.Buses = []int{1, 2}
	handCfg.ALUCounts = []int{1}
	handCfg.CMPCounts = []int{1}

	a, err := ExploreContext(context.Background(), specCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExploreContext(context.Background(), handCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) != len(b.Candidates) || a.Selected != b.Selected ||
		!reflect.DeepEqual(a.Front2D, b.Front2D) || !reflect.DeepEqual(a.Front3D, b.Front3D) {
		t.Fatal("spec-built exploration diverged from the hand-built config")
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		ca.Arch, cb.Arch = nil, nil
		if ca != cb {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, ca, cb)
		}
	}
}
