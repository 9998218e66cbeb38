package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/service"
)

func runLocal(ctx context.Context, spec string, workers int, format, out string, timeout time.Duration) error {
	return run(ctx, runConfig{spec: spec, workers: workers, format: format, out: out, timeout: timeout})
}

func TestRunSmokeSpecTable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	if err := runLocal(context.Background(), "testdata/smoke.json", 4, "table", out, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"designed-vs-blind", "descriptive-baseline", "waxman-throughput", "localized-disaster", "lcc@fracs", "hotspot-traffic", "tmodel", "zipf-hotspot"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "PARTIAL") {
		t.Error("complete run carries a partial marker")
	}
}

func TestRunSmokeSpecJSONAndWorkerDeterminism(t *testing.T) {
	read := func(workers int, format string) string {
		out := filepath.Join(t.TempDir(), "out")
		if err := runLocal(context.Background(), "testdata/smoke.json", workers, format, out, 0); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := read(1, "table"), read(8, "table"); a != b {
		t.Fatalf("table output differs between -workers 1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", a, b)
	}
	j := read(4, "json")
	if !strings.Contains(j, `"scenario"`) || !strings.Contains(j, `"reps"`) {
		t.Fatalf("json output malformed:\n%s", j)
	}
	if strings.Contains(j, `"partial"`) {
		t.Fatalf("complete json output carries a partial wrapper:\n%s", j)
	}
}

// TestRunSmokeSpecGolden pins the smoke run's numbers, not just its
// shape: the table and JSON outputs of testdata/smoke.json must equal
// the recorded goldens byte for byte. Its outage-and-recovery scenario
// replays a multi-epoch node and edge timeline twice (repeat 2), so the
// timeline engine's output is pinned here too. An intended output
// change is recorded by copying the new output over the golden.
func TestRunSmokeSpecGolden(t *testing.T) {
	for _, format := range []string{"table", "json"} {
		out := filepath.Join(t.TempDir(), "out")
		if err := runLocal(context.Background(), "testdata/smoke.json", 4, format, out, 0); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "smoke."+format+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("-format %s output differs from testdata/smoke.%s.golden:\n--- got ---\n%s\n--- want ---\n%s", format, format, got, want)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runLocal(context.Background(), bad, 0, "table", "-", 0); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("corrupt spec gave %v, want ErrBadParam", err)
	}
	if err := runLocal(context.Background(), filepath.Join(dir, "missing.json"), 0, "table", "-", 0); err == nil {
		t.Fatal("missing spec file accepted")
	}
	if err := runLocal(context.Background(), "", 0, "table", "-", 0); err == nil {
		t.Fatal("empty -spec accepted")
	}
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"generate": {"model": "nope"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runLocal(context.Background(), unknown, 0, "table", "-", 0); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("unknown model gave %v, want ErrBadParam", err)
	}
	if err := run(context.Background(), runConfig{statusz: true}); err == nil {
		t.Fatal("-statusz without -server accepted")
	}
}

func TestListShowsModelsAttacksAndMetrics(t *testing.T) {
	var b strings.Builder
	listModels(&b)
	out := b.String()
	for _, want := range []string{
		"models:", "traffic:", "attacks:", "metrics:",
		"fkp", "geographic", "random-edge", "lcc", "expansion",
		"gravity", "zipf-hotspot", "single-epicenter", "throughput", "delivered-frac",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestRunHonorsCanceledContext pins the Ctrl-C satellite: a canceled
// run exits non-zero (ErrCanceled from run -> os.Exit(1) in main) and
// the JSON output carries the partial-results marker.
func TestRunHonorsCanceledContext(t *testing.T) {
	dir := t.TempDir()
	big := filepath.Join(dir, "big.json")
	spec := `{"generate": {"model": "fkp", "params": {"n": 20000}}, "reps": 4}`
	if err := os.WriteFile(big, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out := filepath.Join(dir, "partial.json")
	err := runLocal(ctx, big, 4, "json", out, 0)
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled run gave %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var wrapped struct {
		Partial bool            `json:"partial"`
		Error   string          `json:"error"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &wrapped); err != nil {
		t.Fatalf("partial output not JSON: %v\n%s", err, data)
	}
	if !wrapped.Partial || wrapped.Error == "" || wrapped.Results == nil {
		t.Fatalf("partial wrapper malformed: %s", data)
	}

	// Table output marks the cut the same way.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel2()
	}()
	tblOut := filepath.Join(dir, "partial.txt")
	if err := runLocal(ctx2, big, 4, "table", tblOut, 0); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled table run gave %v, want ErrCanceled", err)
	}
	tbl, err := os.ReadFile(tblOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tbl), "# PARTIAL:") {
		t.Fatalf("table output missing the partial trailer:\n%s", tbl)
	}
}

// TestServerModeMatchesLocalRun is the acceptance criterion end to end:
// -server output for the smoke spec is byte-identical to the local run.
func TestServerModeMatchesLocalRun(t *testing.T) {
	srv := service.New(service.Config{})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		hs.Close()
	})

	dir := t.TempDir()
	for _, format := range []string{"json", "table"} {
		local := filepath.Join(dir, "local."+format)
		remote := filepath.Join(dir, "remote."+format)
		if err := runLocal(context.Background(), "testdata/smoke.json", 4, format, local, 0); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), runConfig{
			spec: "testdata/smoke.json", format: format, out: remote, server: hs.URL,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(local)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(remote)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s output differs between local and -server runs:\n--- local ---\n%s\n--- remote ---\n%s", format, a, b)
		}
	}

	// -statusz against the same daemon.
	zOut := filepath.Join(dir, "statusz.json")
	if err := run(context.Background(), runConfig{server: hs.URL, statusz: true, out: zOut}); err != nil {
		t.Fatal(err)
	}
	zData, err := os.ReadFile(zOut)
	if err != nil {
		t.Fatal(err)
	}
	var z service.Statusz
	if err := json.Unmarshal(zData, &z); err != nil {
		t.Fatalf("statusz output not JSON: %v\n%s", err, zData)
	}
	if z.Jobs.Done != 2 {
		t.Fatalf("statusz after two jobs: %+v", z.Jobs)
	}
}
