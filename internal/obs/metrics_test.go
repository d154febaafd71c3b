package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	if r.NewCounter("c") != r.NewCounter("c") {
		t.Fatal("NewCounter must return the same series per name")
	}
	if r.NewGauge("g") != r.NewGauge("g") {
		t.Fatal("NewGauge must return the same series per name")
	}
	if r.NewHistogram("h") != r.NewHistogram("h") {
		t.Fatal("NewHistogram must return the same series per name")
	}

	c := r.NewCounter("hits")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("d")
	for _, v := range []uint64{1, 2, 3, 100, 0} {
		h.Observe(v)
	}
	s := r.Snapshot().Hists["d"]
	if s.Count != 5 || s.Sum != 106 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if mean := s.Mean(); mean != 21.2 {
		t.Fatalf("mean = %v, want 21.2", mean)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b.count").Add(3)
	r.NewCounter("a.count").Inc()
	r.NewGauge("depth").Set(-2)
	r.NewHistogram("lat").Observe(10)
	s := r.Snapshot()

	body := s.AppendJSON(nil)
	var decoded struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
		Hists    map[string]struct {
			Count, Sum, Max uint64
		} `json:"hists"`
	}
	if err := json.Unmarshal([]byte("{"+string(body)+"}"), &decoded); err != nil {
		t.Fatalf("AppendJSON output invalid: %v\n%s", err, body)
	}
	if decoded.Counters["a.count"] != 1 || decoded.Counters["b.count"] != 3 {
		t.Errorf("counters: %v", decoded.Counters)
	}
	if decoded.Gauges["depth"] != -2 {
		t.Errorf("gauges: %v", decoded.Gauges)
	}
	if h := decoded.Hists["lat"]; h.Count != 1 || h.Sum != 10 || h.Max != 10 {
		t.Errorf("hists: %v", decoded.Hists)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c")
	g := r.NewGauge("g")
	h := r.NewHistogram("h")
	c.Add(5)
	g.Set(7)
	h.Observe(9)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("Reset must zero counters and gauges")
	}
	if s := r.Snapshot().Hists["h"]; s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("Reset must zero histograms, got %+v", s)
	}
	c.Inc() // series pointer stays live after Reset
	if c.Value() != 1 {
		t.Fatal("series must remain usable after Reset")
	}
}

func TestMetricsLineInTrace(t *testing.T) {
	Metrics.Reset()
	defer Metrics.Reset()
	NewCounter("test.metrics.line").Add(11)
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if !json.Valid([]byte(line)) {
		t.Fatalf("metrics line invalid JSON: %s", line)
	}
	if !strings.Contains(line, `"test.metrics.line":11`) {
		t.Errorf("metrics line missing counter: %s", line)
	}
}
