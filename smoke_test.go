package chopin

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokePrograms lists every runnable program in the repository with
// arguments (and environment) that exercise it on a tiny workload. The
// smoke test builds and runs each one, so a change that compiles but
// crashes a command or example at startup fails the suite.
var smokePrograms = []struct {
	pkg  string   // package path relative to the module root
	args []string // arguments for the smoke run
	env  []string // extra environment (appended to the inherited one)
}{
	{pkg: "./cmd/chopinsim", args: []string{"-bench", "cod2", "-scheme", "chopin", "-scale", "0.02", "-gpus", "2", "-verify"}},
	{pkg: "./cmd/chopinsim", args: []string{"-exp", "tab3", "-scale", "0.02", "-benches", "cod2"}},
	{pkg: "./cmd/chopinsim", args: []string{"-bench", "cod2", "-scheme", "chopin", "-scale", "0.02", "-gpus", "2",
		"-timeline", "timeline.json", "-metrics", "metrics.csv"}},
	{pkg: "./cmd/chopinsim", args: []string{"-exp", "fig2", "-scale", "0.02", "-benches", "cod2",
		"-runrec", "runrec.json"}},
	// {repo} expands to the repository root at run time.
	{pkg: "./cmd/chopintrace", args: []string{"-check", "{repo}/internal/obs/testdata/golden_small.json"}},
	{pkg: "./cmd/chopinstat", args: []string{"-gate",
		"{repo}/internal/runrec/testdata/golden_fig19.json",
		"{repo}/internal/runrec/testdata/golden_fig19.json"}},
	{pkg: "./cmd/chopinreport", args: []string{"-o", "report.html",
		"{repo}/internal/runrec/testdata/golden_fig19.json"}},
	{pkg: "./cmd/tracegen", args: []string{"-bench", "cod2", "-scale", "0.02", "-info"}},

	{pkg: "./examples/quickstart", env: []string{"CHOPIN_EXAMPLE_SCALE=0.02"}},
	{pkg: "./examples/customscheduler", env: []string{"CHOPIN_EXAMPLE_SCALE=0.02"}},
	{pkg: "./examples/scaling", env: []string{"CHOPIN_EXAMPLE_SCALE=0.02"}},
	{pkg: "./examples/animation", env: []string{"CHOPIN_EXAMPLE_SCALE=0.02"}},
	{pkg: "./examples/composition", args: nil},
}

// TestSmokePrograms builds every cmd/ and examples/ program and runs it on
// a tiny workload from a scratch directory (some examples write PNGs to
// their working directory).
func TestSmokePrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs every program")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Every program directory must be covered by an entry above.
	for _, dir := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(repoRoot, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			pkg := "./" + dir + "/" + e.Name()
			covered := false
			for _, p := range smokePrograms {
				if p.pkg == pkg {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("program %s has no smoke-test entry", pkg)
			}
		}
	}

	bins := t.TempDir()
	for _, prog := range smokePrograms {
		prog := prog
		name := filepath.Base(prog.pkg)
		t.Run(prog.pkg+"/"+name, func(t *testing.T) {
			bin := filepath.Join(bins, name)
			if _, err := os.Stat(bin); err != nil {
				build := exec.Command(goTool, "build", "-o", bin, prog.pkg)
				build.Dir = repoRoot
				if out, err := build.CombinedOutput(); err != nil {
					t.Fatalf("building %s: %v\n%s", prog.pkg, err, out)
				}
			}
			workDir := t.TempDir()
			args := make([]string, len(prog.args))
			for i, a := range prog.args {
				args[i] = strings.ReplaceAll(a, "{repo}", repoRoot)
			}
			run := exec.Command(bin, args...)
			run.Dir = workDir
			run.Env = append(os.Environ(), prog.env...)
			start := time.Now()
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("running %s %v: %v\n%s", prog.pkg, args, err, out)
			}
			if len(out) == 0 {
				t.Errorf("%s produced no output", prog.pkg)
			}
			t.Logf("%s %v: ok in %v (%d bytes of output)", prog.pkg, args, time.Since(start).Round(time.Millisecond), len(out))
		})
	}
}
