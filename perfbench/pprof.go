package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profile takes a CPU profile of each traced pass and attributes the
// passes' self time to packages through `go tool pprof -top`, whose flat
// column is the time each function was the sample's leaf frame.
type profile struct {
	buf   bytes.Buffer
	paths []string // the written profiles
}

func (p *profile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the pass's profile and writes it to path.
func (p *profile) stop(path string) error {
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	p.paths = append(p.paths, path)
	return nil
}

// selfMS returns the self time in ms per function over every written
// profile, merged by pprof.
func (p *profile) selfMS() (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodefraction=0", "-nodecount=1000000"}, p.paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	return parseTop(out)
}

// parseTop reads the rows of `pprof -top -unit=ms`:
// "flat flat% sum% cum cum% function [(inline)]".
func parseTop(out []byte) (map[string]float64, error) {
	self := map[string]float64{}
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %v", sc.Text(), err)
		}
		self[f[5]] += v
	}
	return self, nil
}

// groupFractions returns each profiled package's share of the profiled
// self time; it is empty when no profile was taken.
func (p *profile) groupFractions() (map[string]float64, error) {
	out := map[string]float64{}
	if len(p.paths) == 0 {
		return out, nil
	}
	self, err := p.selfMS()
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range self {
		total += v
	}
	if total == 0 {
		return out, nil
	}
	for _, g := range profiledPackages {
		out[g] = 0
	}
	for fn, v := range self {
		if g := packageGroup(packageOf(fn)); g != "" {
			out[g] += v / total
		}
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "chopin/internal/raster.(*Renderer).Draw" or "runtime.mallocgc".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// profiledPackages are the packages whose self-time share the traced run
// reports, as "<name>.cpu_frac".
var profiledPackages = []string{"raster", "framebuffer", "sfr", "composite", "gpu", "sim", "exec",
	"interconnect", "vecmath", "runtime"}

// packageGroup maps an import path to its reported group, or "".
func packageGroup(path string) string {
	if path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(path, "chopin/internal/"); ok {
		for _, p := range profiledPackages {
			if name == p {
				return p
			}
		}
	}
	return ""
}
