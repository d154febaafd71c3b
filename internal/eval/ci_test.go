package eval

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"testing"

	"flm/internal/chaos"
)

// The chaos smoke commands are pinned in four places: the exported
// constants in internal/chaos, the E18/E20 experiments here, the CI
// workflow file, and the Makefile defaults. The chaos and eval sides
// are tied by construction (the consts alias chaos's); these tests
// parse the two config files so the remaining legs cannot drift
// silently either.

// chaosInvocation captures one `flm chaos` command line's pinned knobs.
type chaosInvocation struct {
	seed   int64
	trials int
	async  bool
}

// chaosCommands extracts every `flm chaos` invocation from a file. The
// seed/trials flags may appear in either order; -async marks the
// adversarial-asynchrony smoke.
func chaosCommands(t *testing.T, path string) []chaosInvocation {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)flm chaos[^\n]*`)
	seedRe := regexp.MustCompile(`-seed\s+\$?\(?([A-Z_0-9]+\)?|\d+)`)
	trialsRe := regexp.MustCompile(`-trials\s+(\d+)`)
	seedNum := regexp.MustCompile(`-seed\s+(\d+)`)
	var out []chaosInvocation
	for _, cmd := range line.FindAllString(string(data), -1) {
		inv := chaosInvocation{async: regexp.MustCompile(`-async\b`).MatchString(cmd)}
		if m := seedNum.FindStringSubmatch(cmd); m != nil {
			n, err := strconv.ParseInt(m[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: bad seed in %q: %v", path, cmd, err)
			}
			inv.seed = n
		} else if seedRe.MatchString(cmd) {
			// Variable reference (Makefile recipe body) — resolved by
			// the caller against the file's defaults.
			inv.seed = -1
		} else {
			t.Fatalf("%s: chaos command without a -seed flag: %q", path, cmd)
		}
		if m := trialsRe.FindStringSubmatch(cmd); m != nil {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatalf("%s: bad trials in %q: %v", path, cmd, err)
			}
			inv.trials = n
		} else {
			inv.trials = -1
		}
		out = append(out, inv)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no `flm chaos` commands found", path)
	}
	return out
}

// TestCIChaosSmokePinned: the workflow's two chaos smoke runs use
// exactly the exported pinned pairs (and therefore exactly what E18 and
// E20 record).
func TestCIChaosSmokePinned(t *testing.T) {
	syncSeen, asyncSeen := false, false
	for _, inv := range chaosCommands(t, "../../.github/workflows/ci.yml") {
		if inv.async {
			asyncSeen = true
			if inv.seed != chaos.AsyncSmokeSeed || inv.trials != chaos.AsyncSmokeTrials {
				t.Errorf("CI async chaos smoke runs seed=%d trials=%d, pinned pair is seed=%d trials=%d",
					inv.seed, inv.trials, chaos.AsyncSmokeSeed, chaos.AsyncSmokeTrials)
			}
		} else {
			syncSeen = true
			if inv.seed != chaos.SmokeSeed || inv.trials != chaos.SmokeTrials {
				t.Errorf("CI chaos smoke runs seed=%d trials=%d, pinned pair is seed=%d trials=%d",
					inv.seed, inv.trials, chaos.SmokeSeed, chaos.SmokeTrials)
			}
		}
	}
	if !syncSeen {
		t.Error("CI workflow has no synchronous chaos smoke run")
	}
	if !asyncSeen {
		t.Error("CI workflow has no async chaos smoke run")
	}
}

// TestMakefileChaosDefaultsPinned: the Makefile's CHAOS_* and
// ASYNC_CHAOS_* defaults match the exported constants, so `make chaos`
// and `make chaos-async` reproduce CI bit for bit.
func TestMakefileChaosDefaultsPinned(t *testing.T) {
	data, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"CHAOS_SEED":         fmt.Sprint(chaos.SmokeSeed),
		"CHAOS_TRIALS":       fmt.Sprint(chaos.SmokeTrials),
		"ASYNC_CHAOS_SEED":   fmt.Sprint(chaos.AsyncSmokeSeed),
		"ASYNC_CHAOS_TRIALS": fmt.Sprint(chaos.AsyncSmokeTrials),
	}
	for name, val := range want {
		re := regexp.MustCompile(`(?m)^` + name + `\s*\?=\s*(\S+)`)
		m := re.FindStringSubmatch(string(data))
		if m == nil {
			t.Errorf("Makefile has no %s ?= default", name)
			continue
		}
		if m[1] != val {
			t.Errorf("Makefile %s ?= %s, pinned value is %s", name, m[1], val)
		}
	}
}

// TestCIObservabilitySmokePinned: the workflow's trace-smoke job runs
// all three observability legs — the stats summary, the trace-diff
// regression gate, and the live-endpoint smoke — so none of them can be
// dropped without this test noticing.
func TestCIObservabilitySmokePinned(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"make trace-smoke", "make trace-diff", "make obs-smoke"} {
		if !regexp.MustCompile(`(?m)run:\s+` + target + `\b`).Match(data) {
			t.Errorf("CI workflow no longer runs %q", target)
		}
	}
}

// TestMakefileTraceDiffPinned: the trace-diff target keeps its three
// legs (self-diff, committed reference, injected regression expecting
// exit 3) against the committed fixtures, and the fixtures exist. The
// obs-smoke target keeps its three endpoint curls.
func TestMakefileTraceDiffPinned(t *testing.T) {
	data, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, fixture := range []string{
		"cmd/flm/testdata/e1_reference_trace.jsonl",
		"cmd/flm/testdata/e1_regressed_trace.jsonl",
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(fixture)).Match(data) {
			t.Errorf("Makefile no longer references the committed fixture %s", fixture)
		}
		if _, err := os.Stat("../../" + fixture); err != nil {
			t.Errorf("committed fixture missing: %v", err)
		}
	}
	for name, pattern := range map[string]string{
		"trace-diff self-diff":          `stats -diff \$\(TRACE_DIFF_FILE\) \$\(TRACE_DIFF_FILE\)`,
		"trace-diff reference leg":      `stats -diff -notiming -threshold \$\(TRACE_DIFF_THRESHOLD\) \$\(TRACE_REF\)`,
		"trace-diff exit-3 expectation": `test \$\$status -eq 3`,
		"obs-smoke healthz curl":        `/healthz`,
		"obs-smoke metrics curl":        `/metrics`,
		"obs-smoke progress curl":       `/progress`,
		"obs-smoke prometheus check":    `\^flm_`,
	} {
		if !regexp.MustCompile(pattern).Match(data) {
			t.Errorf("Makefile lost the %s leg (pattern %q)", name, pattern)
		}
	}
}

// recipe returns the recipe lines of one Makefile target, up to the
// first line that is not a tab-indented command.
func recipe(t *testing.T, makefile, target string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(target) + `:.*\n((?:\t.*\n)+)`).FindStringSubmatch(makefile)
	if m == nil {
		t.Fatalf("Makefile has no %s target with a recipe", target)
	}
	return m[1]
}

// ciJob returns the body of one job in the CI workflow, up to the next
// job header.
func ciJob(t *testing.T, workflow, job string) string {
	t.Helper()
	m := regexp.MustCompile(`(?ms)^  ` + regexp.QuoteMeta(job) + `:\n(.*?)(?:^  [a-z][a-z0-9-]*:\n|\z)`).FindStringSubmatch(workflow)
	if m == nil {
		t.Fatalf("CI workflow has no %s job", job)
	}
	return m[1]
}

// TestMakefileLintRunsGofmt: `make lint` runs gofmt -l over the tracked
// Go files (so the git-ignored .bench_build/ never counts) and fails
// when it lists any.
func TestMakefileLintRunsGofmt(t *testing.T) {
	data, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	lint := recipe(t, string(data), "lint")
	for name, pattern := range map[string]string{
		"tracked Go files": `git ls-files '\*\.go'`,
		"gofmt listing":    `gofmt -l \$\$files`,
		"fail on output":   `test -z "\$\$unformatted" \|\| \{.*exit 1; \}`,
	} {
		if !regexp.MustCompile(pattern).MatchString(lint) {
			t.Errorf("make lint lost its gofmt check: no %s (pattern %q) in\n%s", name, pattern, lint)
		}
	}
}

// TestCIBuildsPerfbench: perfbench is a module of its own that the root
// `go build ./...` never compiles, so the verify job builds it.
func TestCIBuildsPerfbench(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)run:\s+cd perfbench && go build \./\.\.\.\s*$`).MatchString(ciJob(t, string(data), "verify")) {
		t.Error("CI verify job no longer builds the perfbench module")
	}
}

// TestCITestsCacheOffOneWorker: results must not depend on the worker
// count or the cache state, so the verify job also runs the suite with
// the run cache and its disk tier off on the one-worker sweep pool.
func TestCITestsCacheOffOneWorker(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)run:\s+FLM_RUNCACHE=off FLM_CACHE_DIR=off FLM_WORKERS=1 go test \./\.\.\.\s*$`).MatchString(ciJob(t, string(data), "verify")) {
		t.Error("CI verify job no longer runs the suite with the cache off at one worker")
	}
}

// TestExperimentConstsPinned: E18/E20 run the exact smoke pairs. The
// consts alias chaos's, so this is a tripwire against someone
// re-hardcoding them.
func TestExperimentConstsPinned(t *testing.T) {
	if e18Seed != chaos.SmokeSeed || e18Trials != chaos.SmokeTrials {
		t.Errorf("E18 uses seed=%d trials=%d, pinned pair is seed=%d trials=%d",
			e18Seed, e18Trials, chaos.SmokeSeed, chaos.SmokeTrials)
	}
	if e20Seed != chaos.AsyncSmokeSeed || e20Trials != chaos.AsyncSmokeTrials {
		t.Errorf("E20 uses seed=%d trials=%d, pinned pair is seed=%d trials=%d",
			e20Seed, e20Trials, chaos.AsyncSmokeSeed, chaos.AsyncSmokeTrials)
	}
}
