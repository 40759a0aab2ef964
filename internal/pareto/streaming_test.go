package pareto

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// batchFrontIDs computes the reference answer with the batch scan.
func batchFrontIDs(points []Point) []int {
	idx := Front(points)
	ids := make([]int, len(idx))
	for i, pi := range idx {
		ids[i] = points[pi].ID
	}
	sort.Ints(ids)
	return ids
}

// streamIDs pushes points through a StreamingFront in the given order.
func streamIDs(t *testing.T, dims int, points []Point, order []int) []int {
	t.Helper()
	f := NewStreamingFront(dims)
	for _, i := range order {
		if _, _, err := f.Insert(points[i]); err != nil {
			t.Fatalf("insert %v: %v", points[i], err)
		}
	}
	ids := f.IDs()
	if len(ids) != f.Size() {
		t.Fatalf("IDs() length %d != Size() %d", len(ids), f.Size())
	}
	return ids
}

// TestStreamingMatchesBatchAnyOrder is the satellite property test: over
// random point sets (2-D and 3-D, with deliberate duplicate coordinate
// vectors and discrete values that collide often), the streaming archive
// equals the batch front for every sampled insertion order.
func TestStreamingMatchesBatchAnyOrder(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(dims)))
			n := 5 + rng.Intn(60)
			points := make([]Point, n)
			for i := range points {
				c := make([]float64, dims)
				for d := range c {
					c[d] = float64(rng.Intn(8)) // small range: many ties/dups
				}
				points[i] = Point{ID: i, Coords: c}
			}
			want := batchFrontIDs(points)
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			for trial := 0; trial < 5; trial++ {
				rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
				got := streamIDs(t, dims, points, order)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("dims=%d seed=%d trial=%d: stream %v != batch %v\npoints: %v",
						dims, seed, trial, got, want, points)
				}
			}
		}
	}
}

// TestStreamingArchiveDeepEqualAcrossOrders checks the stronger claim
// the snapshot path relies on: not just the same ID set but deeply equal
// archives (member order and coordinates) regardless of arrival order.
func TestStreamingArchiveDeepEqualAcrossOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 40
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{ID: i, Coords: []float64{
			float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6)),
		}}
	}
	var ref []Point
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(n)
		f := NewStreamingFront(3)
		for _, i := range order {
			if _, _, err := f.Insert(points[i]); err != nil {
				t.Fatal(err)
			}
		}
		got := f.Points()
		if trial == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: archive differs across insertion orders:\n%v\n%v", trial, got, ref)
		}
	}
}

// TestStreamingEvictions exercises the insert contract directly.
func TestStreamingEvictions(t *testing.T) {
	f := NewStreamingFront(2)
	mustInsert := func(id int, x, y float64) (bool, []int) {
		t.Helper()
		acc, ev, err := f.Insert(Point{ID: id, Coords: []float64{x, y}})
		if err != nil {
			t.Fatal(err)
		}
		return acc, ev
	}
	if acc, _ := mustInsert(0, 5, 5); !acc {
		t.Fatal("first insert must be accepted")
	}
	if acc, _ := mustInsert(1, 6, 6); acc {
		t.Fatal("dominated arrival must be rejected")
	}
	if acc, _ := mustInsert(2, 5, 5); !acc {
		t.Fatal("duplicate of a front member must be kept (Front convention)")
	}
	acc, ev := mustInsert(3, 4, 4)
	if !acc {
		t.Fatal("dominating arrival must be accepted")
	}
	sort.Ints(ev)
	if !reflect.DeepEqual(ev, []int{0, 2}) {
		t.Fatalf("evicted %v, want [0 2] (both duplicates)", ev)
	}
	if got := f.IDs(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("front IDs %v, want [3]", got)
	}
	ins, rej, evc := f.Stats()
	if ins != 3 || rej != 1 || evc != 2 {
		t.Fatalf("stats = %d/%d/%d, want 3/1/2", ins, rej, evc)
	}
}

// TestCoordPolicyNaN: the boundary rejects NaN with a typed error and
// leaves the archive unchanged — in every dimension position.
func TestCoordPolicyNaN(t *testing.T) {
	nan := math.NaN()
	if err := ValidateCoords([]float64{1, 2, 3}); err != nil {
		t.Fatalf("finite coords rejected: %v", err)
	}
	for d := 0; d < 3; d++ {
		c := []float64{1, 2, 3}
		c[d] = nan
		err := ValidateCoords(c)
		var ce *CoordError
		if !errors.As(err, &ce) {
			t.Fatalf("NaN in dim %d: got %v, want *CoordError", d, err)
		}
		if ce.Dim != d {
			t.Errorf("NaN in dim %d reported as dim %d", d, ce.Dim)
		}
	}
	f := NewStreamingFront(2)
	if _, _, err := f.Insert(Point{ID: 0, Coords: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Insert(Point{ID: 1, Coords: []float64{nan, 0}}); err == nil {
		t.Fatal("NaN insert must error")
	}
	if _, _, err := f.Insert(Point{ID: 2, Coords: []float64{1}}); err == nil {
		t.Fatal("dimensionality mismatch must error")
	}
	if got := f.IDs(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("rejected inserts must leave the archive unchanged: %v", got)
	}
}

// TestCoordPolicyInf: ±Inf is a legal (transitively comparable)
// objective value, for both the streaming archive and the batch scan.
func TestCoordPolicyInf(t *testing.T) {
	inf := math.Inf(1)
	if err := ValidateCoords([]float64{inf, math.Inf(-1)}); err != nil {
		t.Fatalf("±Inf must pass validation: %v", err)
	}
	points := []Point{
		{ID: 0, Coords: []float64{1, inf}},   // front: best x
		{ID: 1, Coords: []float64{2, 5}},     // front
		{ID: 2, Coords: []float64{2, inf}},   // dominated by 1 (and 0)
		{ID: 3, Coords: []float64{inf, 1}},   // front: best y
		{ID: 4, Coords: []float64{inf, inf}}, // dominated by everything finite-ish
	}
	want := batchFrontIDs(points)
	got := streamIDs(t, 2, points, []int{4, 2, 0, 3, 1})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Inf handling: stream %v != batch %v", got, want)
	}
	if !reflect.DeepEqual(want, []int{0, 1, 3}) {
		t.Fatalf("batch front over Inf points = %v, want [0 1 3]", want)
	}
}

// TestStreamingConcurrentInserts is the -race stress: many goroutines
// hammer one archive; afterwards it must equal the batch front of the
// union, and the counters must balance.
func TestStreamingConcurrentInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{ID: i, Coords: []float64{
			float64(rng.Intn(50)), float64(rng.Intn(50)), float64(rng.Intn(50)),
		}}
	}
	f := NewStreamingFront(3)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if _, _, err := f.Insert(points[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := batchFrontIDs(points)
	if got := f.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent archive %v != batch %v", got, want)
	}
	ins, rej, evc := f.Stats()
	if ins-evc != int64(f.Size()) {
		t.Fatalf("counter imbalance: inserts %d - evictions %d != size %d", ins, evc, f.Size())
	}
	if ins+rej != n {
		t.Fatalf("inserts %d + rejects %d != %d arrivals", ins, rej, n)
	}
}
