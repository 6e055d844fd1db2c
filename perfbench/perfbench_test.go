package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON pins the metric and workload
// tables to BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, catalogue %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDoc) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, catalogue %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmokeEmitsEveryMetric runs every workload on its smoke-sized
// grid through the real command, untraced and traced, and checks that
// the result line names every metric of BENCHMARK.json with its unit
// and that no output check failed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	b := readBenchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range b.Workloads {
		for _, tr := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+tr, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", tr, "--tiny")
				cmd.Dir = t.TempDir()
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := b.EndToEnd
				if tr == "1" {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceFails checks that the output check catches a
// reference value that no longer matches: first the smoke grid passes
// against the committed references, then one corrupted count and one
// corrupted simulated time each make exactly one cell fail.
func TestCorruptedReferenceFails(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(refs)
	runEvalSweep(tinyGrids(), chk)
	if chk.failed != 0 || chk.attempted == 0 {
		t.Fatalf("smoke grid against the committed references: attempted %d, failed %d: %v",
			chk.attempted, chk.failed, chk.failures)
	}
	seen := chk.observed()
	var target obs
	for _, o := range seen {
		if _, ok := refs[o.key()]; ok && o.network == "ideal" {
			target = o
			break
		}
	}
	if target.app == "" {
		t.Fatal("no checked cell on the ideal network in the smoke grid")
	}
	for _, corrupt := range []func(*ref){
		func(r *ref) { r.Msgs++ },
		func(r *ref) { r.TimeNS-- },
	} {
		bad := make(map[string]ref, len(refs))
		for k, v := range refs {
			bad[k] = v
		}
		r := bad[target.key()]
		corrupt(&r)
		bad[target.key()] = r
		c := newChecker(bad)
		c.observe(seen)
		if c.failed != 1 {
			t.Errorf("corrupted reference for %s: %d failures, want 1 (%v)", target.key(), c.failed, c.failures)
		}
	}
}

// TestTracedSpansNest re-executes the smoke grid through the traced
// cell runner and checks that every fault, barrier and lock span lies
// inside its processor's run span and every kept span inside its
// parent; then that a span escaping its parent is caught.
func TestTracedSpansNest(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	rec, chk := newRecorder(), newChecker(refs)
	te := &tracedEval{rec: rec, chk: chk, pool: newPool()}
	te.run(tinyGrids())
	if chk.failed != 0 || chk.attempted == 0 {
		t.Fatalf("traced smoke grid: attempted %d, failed %d: %v", chk.attempted, chk.failed, chk.failures)
	}
	if n := rec.checkNesting(); n != 0 {
		t.Fatalf("%d spans escape their parents: %v", n, rec.broken[:min(n, 5)])
	}
	if rec.nested == 0 {
		t.Fatal("no span was checked")
	}
	m := map[string]float64{}
	rec.layerMetrics(m)
	for _, k := range []string{"tmk.run_s", "tmk.faults", "tmk.barriers", "apps.check_s"} {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k])
		}
	}

	bad := newRecorder()
	parent := bad.end(bad.begin("cell", 0, 0))
	child := span{ID: bad.nextID.Add(1), Parent: parent.ID, Op: parent.ID, Name: "tmk.fault",
		Start: parent.Start - 1, End: parent.End}
	bad.spans = append(bad.spans, child)
	if n := bad.checkNesting(); n != 1 {
		t.Errorf("a span starting before its parent: %d violations, want 1", n)
	}
}
