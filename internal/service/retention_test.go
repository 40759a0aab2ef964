package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
)

// aggregatedCounters sums the /v1/metrics-aggregated counters of jobs.
func aggregatedCounters(jobs []*Job) map[string]int64 {
	sum := map[string]int64{}
	for _, j := range jobs {
		for name, v := range j.reg.Snapshot().Counters {
			if aggregatedMetric(name) {
				sum[name] += v
			}
		}
	}
	return sum
}

func TestFinishedJobsEvictedPastCap(t *testing.T) {
	defer func(n int) { finishedJobCap = n }(finishedJobCap)
	finishedJobCap = 3
	srv := NewServer(Options{MaxConcurrent: 1, QueueDepth: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The oldest job in the table never settles on its own: eviction
	// must pass over it however many jobs finish after it.
	active := newJob("job-active", smallSpec())
	active.onFinish = srv.retire
	srv.mu.Lock()
	srv.jobs[active.ID] = active
	srv.order = append(srv.order, active.ID)
	srv.active++
	srv.mu.Unlock()

	// /v1/metrics counters must never fall while jobs finish and are
	// evicted around the polls.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[string]int64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			var snap obs.Snapshot
			resp, err := http.Get(ts.URL + "/v1/metrics")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
			}
			if err != nil {
				t.Errorf("polling /v1/metrics: %v", err)
				return
			}
			for name, v := range snap.Counters {
				if aggregatedMetric(name) && v < last[name] {
					t.Errorf("counter %s fell from %d to %d", name, last[name], v)
				}
				last[name] = v
			}
		}
	}()

	var done []*Job
	for i := 0; i < 6; i++ {
		j, err := srv.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st != StateDone {
			t.Fatalf("job %s ended %s: %s", j.ID, st, j.Status().Error)
		}
		done = append(done, j)
	}
	close(stop)
	wg.Wait()

	for i, j := range done {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < 3 {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", j.ID, resp.StatusCode, want)
		}
	}
	var st JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+active.ID, http.StatusOK, &st)
	if st.State != StateQueued {
		t.Errorf("active job state %s, want queued", st.State)
	}

	// The counters of evicted jobs stay in the sums; their gauges go.
	var snap obs.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &snap)
	want := aggregatedCounters(done)
	if len(want) == 0 {
		t.Fatal("finished jobs recorded no aggregated counters")
	}
	for name, v := range want {
		if snap.Counters[name] != v {
			t.Errorf("counter %s = %d, want %d (all jobs ever finished)", name, snap.Counters[name], v)
		}
	}
	gauges := map[string]float64{}
	for _, j := range done[3:] {
		for name, v := range j.reg.Snapshot().Gauges {
			if aggregatedMetric(name) {
				gauges[name] += v
			}
		}
	}
	for name, v := range gauges {
		if snap.Gauges[name] != v {
			t.Errorf("gauge %s = %g, want %g (retained jobs only)", name, snap.Gauges[name], v)
		}
	}

	// Once it settles, the formerly active job is the oldest finished
	// one and goes first.
	active.finish(StateCancelled, "", nil)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + active.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("settled active job: status %d, want 404", resp.StatusCode)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.active != 0 || srv.finished != 3 || len(srv.jobs) != 3 || len(srv.order) != 3 {
		t.Errorf("table: active %d, finished %d, %d jobs, %d ids; want 0, 3, 3, 3",
			srv.active, srv.finished, len(srv.jobs), len(srv.order))
	}
}
