package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// smoke runs one workload at a tiny scale and returns the exit code, the
// standard output and the record directory.
func smoke(t *testing.T, workload string, trace int, extra ...string) (int, string, string) {
	t.Helper()
	out := t.TempDir()
	args := append([]string{
		"--workload", workload, "--seed", "3", "--seconds", "0.3",
		"--trace", fmt.Sprint(trace), "--scale", "0.05", "--out", out,
	}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 && len(extra) == 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, stdout.String(), out
}

// lastResult parses the JSON object on the last line of the output and
// checks it has exactly the result keys.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, last)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys = %v", got)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				code, stdout, out := smoke(t, w, trace)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stdout)
				}
				res := lastResult(t, stdout)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == 1 {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
				}
				// Every end-to-end metric, and fail_frac, is printed with
				// its unit and sample count, traced or not.
				printed := append(append([]metricDef{}, endToEnd...), printedOnly...)
				for _, m := range append(printed, metricDef{"fail_frac", "ratio"}) {
					re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + ` +n=[1-9]`)
					if !re.MatchString(stdout) {
						t.Errorf("no %q line with unit and sample count in:\n%s", m.name, stdout)
					}
				}
				if !strings.HasPrefix(stdout, "fingerprint: ") || !strings.Contains(stdout, "\nkernels: ") {
					t.Errorf("missing fingerprint or kernels line:\n%s", stdout)
				}
				if trace == 1 {
					checkSpans(t, filepath.Join(out, fmt.Sprintf("%s-seed3-trace1.spans.json", w)))
					if !strings.Contains(stdout, "self remainder") {
						t.Errorf("no remainder line in the self-time table:\n%s", stdout)
					}
				}
			})
		}
	}
}

// checkSpans asserts that every span of a timed operation nests, through
// its parent chain, under that operation's root span.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		byID[s.ID] = s
	}
	ops, children := 0, 0
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		cur := s
		for cur.Parent != 0 {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %+v has unknown parent %d", cur, cur.Parent)
			}
			if p.Op != s.Op {
				t.Fatalf("span %+v has parent %+v from another op", cur, p)
			}
			cur = p
		}
		if cur.ID != s.Op || cur.Name != rootName {
			t.Fatalf("span %+v does not nest under its op root (reached %+v)", s, cur)
		}
		if s.ID == s.Op {
			ops++
		} else {
			children++
		}
	}
	if ops == 0 || children == 0 {
		t.Fatalf("%d op roots and %d child spans", ops, children)
	}
}

func TestCorruptedOracleFailsTheRun(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, stdout, _ := smoke(t, w, 0, "--corrupt-oracle")
			if code == 0 {
				t.Fatalf("run with a corrupted oracle exited 0:\n%s", stdout)
			}
			if res := lastResult(t, stdout); res.Correct {
				t.Fatalf("run with a corrupted oracle reported correct")
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		p := filepath.Join(dir, name)
		rec := record{Fingerprint: fingerprint{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1", Workload: "pagerank"}}
		if err := writeJSON(p, rec); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", "cpu A"), write("b.json", "cpu B"), write("c.json", "cpu A")
	var out, errOut bytes.Buffer
	if code := run([]string{"--compare", a + "," + b}, &out, &errOut); code != 3 {
		t.Errorf("cross-host compare exited %d, want 3 (%s)", code, errOut.String())
	}
	if code := run([]string{"--compare", a + "," + c}, &out, &errOut); code != 0 {
		t.Errorf("same-host compare exited %d: %s", code, errOut.String())
	}
}
