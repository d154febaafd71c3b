package eval

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"flm/internal/chaos"
)

// The chaos smoke pairs are pinned in three places: the exported
// constants in internal/chaos, the E18/E20 experiments here, and the
// Makefile defaults that CI runs through `make chaos` and
// `make chaos-async`. The chaos and eval sides are tied by construction
// (the consts alias chaos's); these tests parse the workflow and the
// Makefile so the remaining leg cannot drift silently either.

// TestCIChaosSmokePinned: the workflow's chaos smoke job runs the
// Makefile's chaos and chaos-async targets and names no seed or trial
// count of its own, and those recipes pass the pinned Makefile defaults
// (TestMakefileChaosDefaultsPinned) to flm chaos, the async one with
// -async -deadset (and therefore exactly what E18 and E20 record).
func TestCIChaosSmokePinned(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	job := ciJob(t, string(data), "chaos-smoke")
	for _, target := range []string{"chaos", "chaos-async"} {
		if !regexp.MustCompile(`(?m)run:\s+make ` + target + `\s*$`).MatchString(job) {
			t.Errorf("CI chaos-smoke job no longer runs make %s", target)
		}
	}
	if regexp.MustCompile(`flm chaos`).Match(data) {
		t.Error("CI workflow runs flm chaos itself; the pinned pairs belong to the make targets")
	}
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for target, pattern := range map[string]string{
		"chaos":       `flm chaos -seed \$\(CHAOS_SEED\) -trials \$\(CHAOS_TRIALS\)\s*$`,
		"chaos-async": `flm chaos -async -deadset -seed \$\(ASYNC_CHAOS_SEED\) -trials \$\(ASYNC_CHAOS_TRIALS\)\s*$`,
	} {
		if !regexp.MustCompile(`(?m)` + pattern).MatchString(recipe(t, string(makefile), target)) {
			t.Errorf("make %s no longer runs the pinned smoke (pattern %q)", target, pattern)
		}
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
// both observability legs — the stats summary and the trace-diff
// regression gate — so neither can be dropped without this test
// noticing; and the summary leg traces E1-E7, requires the chain section
// to list all 13 theorem families of Theorems 1-6, so the link spans of
// no theorem can vanish unnoticed, and requires exactly 20
// timedsim.execute spans, so E7's timed executions are seen too.
func TestCIObservabilitySmokePinned(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"make trace-smoke", "make trace-diff"} {
		if !regexp.MustCompile(`(?m)run:\s+` + target + `\b`).Match(data) {
			t.Errorf("CI workflow no longer runs %q", target)
		}
	}
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	smoke := recipe(t, string(makefile), "trace-smoke")
	for name, pattern := range map[string]string{
		"E1-E7 traced":       `flm run -trace \$\(TRACE_FILE\) E1 E2 E3 E4 E5 E6 E7 `,
		"family count":       `grep -c ' chain\(s\), ' \$\(TRACE_FILE\)\.stats\.txt`,
		"13 families or die": `test "\$\$families" -eq 13 \|\| \{.*exit 1; \}`,
		"timed span count":   `awk '\$\$1 == "timedsim\.execute" \{ print \$\$2; exit \}' \$\(TRACE_FILE\)\.stats\.txt`,
		"20 spans or die":    `test "\$\$spans" = 20 \|\| \{.*exit 1; \}`,
	} {
		if !regexp.MustCompile(pattern).MatchString(smoke) {
			t.Errorf("make trace-smoke lost its %s check (pattern %q) in\n%s", name, pattern, smoke)
		}
	}
}

// TestMakefileTraceDiffPinned: the trace-diff target keeps its three
// legs (self-diff, committed reference, injected regression expecting
// exit 3) against the committed fixtures, and the fixtures exist.
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
	} {
		if !regexp.MustCompile(pattern).Match(data) {
			t.Errorf("Makefile lost the %s leg (pattern %q)", name, pattern)
		}
	}
}

// TestMakefileScratchOnlyFromVariables: the smoke targets write their
// scratch files where their variables say (CI points CACHE_WARM_DIR at
// the runner's temp directory), so no recipe line may name /tmp/ itself;
// only a ?= default may.
func TestMakefileScratchOnlyFromVariables(t *testing.T) {
	data, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	def := regexp.MustCompile(`^[A-Z_]+ \?= `)
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "/tmp/") && !def.MatchString(line) && !strings.HasPrefix(line, "#") {
			t.Errorf("Makefile line %d names /tmp/ outside a ?= default: %s", i+1, line)
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

// TestMakefileCacheWarmPinned: the workflow's cache-warm job runs
// `make cache-warm`, whose recipe runs flm all cold and then warm
// against one store, diffs the two reports, and gates the warm trace on
// `flm stats -mindiskrate $(CACHE_WARM_MIN_RATE)`; the floor's default
// is 100, so a codec that cannot read back even one blob fails it.
func TestMakefileCacheWarmPinned(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)run:\s+make cache-warm\b`).MatchString(ciJob(t, string(data), "cache-warm")) {
		t.Error("CI cache-warm job no longer runs make cache-warm")
	}
	makefile, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	warm := recipe(t, string(makefile), "cache-warm")
	for name, pattern := range map[string]string{
		"cold run":        `FLM_CACHE_DIR=\$\(CACHE_WARM_DIR\) \$\(GO\) run \./cmd/flm all > \$\(CACHE_WARM_DIR\)\.cold\.txt`,
		"traced warm run": `FLM_CACHE_DIR=\$\(CACHE_WARM_DIR\) \$\(GO\) run \./cmd/flm all -trace \$\(CACHE_WARM_DIR\)\.jsonl > \$\(CACHE_WARM_DIR\)\.warm\.txt`,
		"report diff":     `diff \$\(CACHE_WARM_DIR\)\.cold\.txt \$\(CACHE_WARM_DIR\)\.warm\.txt`,
		"disk-rate gate":  `stats -mindiskrate \$\(CACHE_WARM_MIN_RATE\) \$\(CACHE_WARM_DIR\)\.jsonl`,
	} {
		if !regexp.MustCompile(pattern).MatchString(warm) {
			t.Errorf("make cache-warm lost its %s (pattern %q) in\n%s", name, pattern, warm)
		}
	}
	m := regexp.MustCompile(`(?m)^CACHE_WARM_MIN_RATE\s*\?=\s*(\S+)`).FindStringSubmatch(string(makefile))
	if m == nil || m[1] != "100" {
		t.Errorf("Makefile CACHE_WARM_MIN_RATE default is %v, want 100", m)
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
