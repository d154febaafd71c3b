package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// passOps generates pass k of a workload for a seed without running any
// op: the generator side of set-up only.
func passOps(t *testing.T, name string, seed int64, k int) []op {
	t.Helper()
	switch name {
	case "prove", "prove-warm":
		ops, err := proveOps(proofCatalogue(newRNG(seed, 1)), map[string]string{})
		if err != nil {
			t.Fatal(err)
		}
		return (&proveWorkload{seed: seed, ops: ops}).pass(k)
	case "census":
		kinds, err := buildCensusKinds(&harness{})
		if err != nil {
			t.Fatal(err)
		}
		return (&censusWorkload{seed: seed, kinds: kinds}).pass(k)
	case "chaos":
		return (&chaosWorkload{seed: seed}).pass(k)
	}
	t.Fatalf("unknown workload %s", name)
	return nil
}

func describe(ops []op) (kinds, inputs []string) {
	for _, o := range ops {
		kinds = append(kinds, o.kind)
		inputs = append(inputs, o.input)
	}
	return kinds, inputs
}

// TestGeneratorsArePure: the same seed gives the same ops, in the same
// order, with the same inputs; another seed gives other inputs.
func TestGeneratorsArePure(t *testing.T) {
	for _, w := range workloadNames {
		for _, k := range []int{-1, 0, 7} {
			k1, in1 := describe(passOps(t, w, 42, k))
			k2, in2 := describe(passOps(t, w, 42, k))
			if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(in1, in2) {
				t.Errorf("%s pass %d: two generations from seed 42 differ", w, k)
			}
			_, in3 := describe(passOps(t, w, 43, k))
			if reflect.DeepEqual(in1, in3) {
				t.Errorf("%s pass %d: seeds 42 and 43 draw identical inputs", w, k)
			}
		}
	}
}

// TestSeedsShareTheOpKindMultiset: every seed does the same kinds of
// work; only their order and inputs differ.
func TestSeedsShareTheOpKindMultiset(t *testing.T) {
	for _, w := range workloadNames {
		for _, k := range []int{0, 3} {
			a, _ := describe(passOps(t, w, 1, k))
			b, _ := describe(passOps(t, w, 2, k))
			sort.Strings(a)
			sort.Strings(b)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s pass %d: seeds 1 and 2 give op kinds %v and %v", w, k, a, b)
			}
			if len(a) == 0 {
				t.Errorf("%s pass %d is empty", w, k)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and
// metric lists in step with what the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}

// TestChaosPoolsAlternate: a chaos pass alternates the generators, so
// their pools must hold the same number of master seeds.
func TestChaosPoolsAlternate(t *testing.T) {
	if len(chaosPools[0]) != len(chaosPools[1]) {
		t.Fatalf("chaos pools hold %d and %d master seeds", len(chaosPools[0]), len(chaosPools[1]))
	}
	kinds, _ := describe(passOps(t, "chaos", 1, 0))
	for i := 1; i < len(kinds); i++ {
		if kinds[i] == kinds[i-1] {
			t.Fatalf("chaos pass does not alternate generators: %v", kinds)
		}
	}
}
