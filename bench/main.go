// Command bench is the end-to-end scenario benchmark. It runs three
// workloads against scenario.Engine and the toposcenariod service,
// prints every end-to-end metric, checks that every output is correct,
// and with -trace 1 attributes a traced pass to the repository's layers.
// See README.md for the workloads, the metrics and how to read a trace.
//
//	bash bench/run.sh -seed 1                      # all workloads, one child process each
//	bash bench/run.sh -workload design-cold -seed 2 -seconds 10 -trace 1
//	bash bench/run.sh -compare bench/out/a bench/out/b
package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

//go:embed testdata/*.sha256
var goldens embed.FS

func main() {
	workloadName := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed: topology seeds, timeline targets and the job mix derive from it")
	seconds := flag.Float64("seconds", 30, "measure passes until this many seconds have passed (at least 4 passes)")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for results and trace files")
	compare := flag.Bool("compare", false, "compare two sets of results: -compare A B, each a results file or a directory of them")
	flag.Parse()

	var err error
	code := 0
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files or directories, got %d", flag.NArg())
			break
		}
		code, err = compareMain(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, got %d", *trace)
	case *workloadName != "":
		code, err = runOne(*workloadName, *seed, *seconds, *trace == 1, *out)
	default:
		code, err = runAll(*seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// resultLine is the last line a workload run prints: the outcome and
// every metric of the mode (end-to-end, or per-layer when traced).
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload in this process.
func run(name string, cfg runConfig) (*report, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if w.service != nil {
		return runService(context.Background(), w, cfg)
	}
	return runEngine(context.Background(), w, cfg)
}

func runOne(name string, seed int64, seconds float64, trace bool, out string) (int, error) {
	cfg := runConfig{seed: seed, seconds: seconds, trace: trace, sizes: fullSizes, out: out, log: os.Stdout}
	if seed == 1 {
		data, err := goldens.ReadFile("testdata/" + name + ".sha256")
		if err == nil {
			cfg.golden = string(data)
		}
	}
	rep, err := run(name, cfg)
	if err != nil {
		return 0, err
	}
	// The unit listing is the golden file format: after an intended
	// change of a workload, copy it to testdata/.
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(out, name+".sha256"), []byte(rep.Units), 0o644); err != nil {
		return 0, err
	}
	defs, printed := endToEnd, endToEnd
	if trace {
		defs, printed = perLayer, append(append([]metricDef{}, endToEnd...), perLayer...)
	}
	fmt.Printf("%s digest %s\n", name, rep.Digest)
	for _, d := range printed {
		fmt.Printf("%s %s %.6g %s\n", name, d.name, rep.Metrics[d.name], d.unit)
	}
	fmt.Printf("%s fail_frac %.6g ratio (%d of %d units)\n", name, float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	line, err := json.Marshal(resultLine{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   rep.Metrics.emit(defs),
	})
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// results is one run of every workload, as written to the results file
// and read back by -compare.
type results struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

type meta struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Start      string  `json:"start"`
}

type workloadResult struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	resultLine
}

// runAll runs every workload in its own child process, so memory and
// GC state stay per workload, and writes the stamped results file.
func runAll(seed int64, seconds float64, trace int, out string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	res := results{Meta: meta{
		Commit:     commit(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}}
	code := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &buf), os.Stderr
		runErr := cmd.Run()
		wr := workloadResult{Name: w.name}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &wr.resultLine); err != nil {
			return 0, fmt.Errorf("%s: no result line (%v): %w", w.name, runErr, err)
		}
		for _, l := range lines {
			if d, ok := strings.CutPrefix(l, w.name+" digest "); ok {
				wr.Digest = d
			}
		}
		if runErr != nil || wr.Failed > 0 {
			code = 1
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 0, err
	}
	path := filepath.Join(out, fmt.Sprintf("results-seed%d-trace%d-%s.json", seed, trace, time.Now().UTC().Format("20060102-150405")))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	fmt.Println("results:", path)
	return code, nil
}

// commit identifies the code measured: the VCS stamp of the build, else
// git's HEAD, else "unknown" (a checkout without version control).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
