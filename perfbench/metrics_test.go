package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBenchmarkJSONMatchesRegistry: every metric the benchmark can
// emit is declared in BENCHMARK.json with the same unit and direction,
// and every declared metric and workload exists here.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	d := loadDeclared(t)
	key := func(name, unit, better string) string { return name + " [" + unit + ", " + better + "]" }
	var gotE2E, wantE2E, gotLayer, wantLayer, gotW []string
	for _, m := range d.EndToEnd {
		gotE2E = append(gotE2E, key(m.Name, m.Unit, m.Better))
	}
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, key(m.name, m.unit, m.better))
	}
	for _, m := range d.PerLayer {
		gotLayer = append(gotLayer, key(m.Name, m.Unit, m.Better))
	}
	for _, m := range perLayer {
		wantLayer = append(wantLayer, key(m.name, m.unit, m.better))
	}
	for _, w := range d.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", gotE2E, wantE2E}, {"per_layer", gotLayer, wantLayer}, {"workloads", gotW, workloads}} {
		if strings.Join(c.got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("BENCHMARK.json %s:\n%s\nregistry:\n%s", c.what, strings.Join(c.got, "\n"), strings.Join(c.want, "\n"))
		}
	}
	for _, w := range workloads {
		if runners[w] == nil {
			t.Errorf("workload %s has no runner", w)
		}
	}
}

// TestEmittedNamesAreDeclared scans the benchmark's source for every
// metric name it writes into a result and checks that each is in the
// registry.
func TestEmittedNamesAreDeclared(t *testing.T) {
	known := map[string]bool{}
	for _, m := range endToEnd {
		known[m.name] = true
	}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for _, m := range spanMetrics {
		if !known[m.metric] {
			t.Errorf("span metric %s is not declared", m.metric)
		}
	}
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			sel, ok := ix.X.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "e2e" && sel.Sel.Name != "layer") {
				return true
			}
			lit, ok := ix.Index.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			metric, _ := strconv.Unquote(lit.Value)
			emitted++
			if !known[metric] {
				t.Errorf("%s: metric %q is emitted but not declared", fset.Position(lit.Pos()), metric)
			}
			return true
		})
	}
	if emitted < 30 {
		t.Fatalf("found only %d emitted metric names; the scan is broken", emitted)
	}
}

// TestReportLastLine: the last line is one JSON object with exactly the
// contract's keys and every metric of the requested set.
func TestReportLastLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := newResult()
		res.attempted = 1
		for _, m := range endToEnd {
			res.e2e[m.name] = 1
		}
		for _, m := range perLayer {
			res.layer[m.name] = 1
		}
		var buf bytes.Buffer
		if code := report(&buf, res, traced); code != 0 {
			t.Fatalf("traced=%v: exit code %d, output:\n%s", traced, code, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Fatalf("last line keys: %v", last)
		}
		var ms map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(last["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(ms) != len(want) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(ms), len(want))
		}
		for _, m := range want {
			if ms[m.name].Unit != m.unit {
				t.Errorf("metric %s: unit %q, want %q", m.name, ms[m.name].Unit, m.unit)
			}
		}
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	res := newResult()
	res.attempted = 1
	res.check(false, "broken")
	var buf bytes.Buffer
	if code := report(&buf, res, false); code == 0 {
		t.Fatal("a failed output check must exit non-zero")
	}
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Fatalf("result line should say correct=false:\n%s", buf.String())
	}
}
