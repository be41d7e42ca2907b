package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the buckets CPU samples are charged to, in report order.
// Simulator layers are named after their modules.
var layers = []string{
	"sim", "cpu", "mesi", "denovo", "cache", "noc", "mem", "machine", "workload",
	"runtime.alloc", "runtime.sched", "other",
}

// moduleLayers maps a denovosync/internal package to its layer. The
// workload packages (kernels, application models and the libraries they
// are built from) form one layer with the benchmark's own code; any
// other package is "other".
var moduleLayers = map[string]string{
	"sim": "sim", "cpu": "cpu", "mesi": "mesi", "denovo": "denovo", "cache": "cache",
	"noc": "noc", "mem": "mem", "machine": "machine",
	"kernels": "workload", "apps": "workload", "locks": "workload",
	"lockfree": "workload", "barrier": "workload", "alloc": "workload",
}

// Runtime frames that charge a sample to allocation and garbage
// collection, and to the scheduler and channels. A trailing "*" matches
// a prefix. Map frames are in neither list, so a map operation is
// charged to the module that called it.
var (
	allocFrames = []string{
		"runtime.mallocgc*", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
		"runtime.gcBgMarkWorker", "runtime.gcDrain*", "runtime.gcAssist*", "runtime.bgsweep",
		"runtime.memclrNoHeapPointers", "runtime.(*mheap).*", "runtime.(*mcache).*", "runtime.(*mspan).*",
		"runtime.GC",
	}
	schedFrames = []string{
		"runtime.chansend*", "runtime.chanrecv*", "runtime.gopark", "runtime.goready",
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.casgstatus", "runtime.lock2", "runtime.unlock2", "runtime.futex*",
		"runtime.wakep", "runtime.coroswitch",
	}
)

func matchAny(frame string, patterns []string) bool {
	for _, p := range patterns {
		if prefix, ok := strings.CutSuffix(p, "*"); ok {
			if strings.HasPrefix(frame, prefix) {
				return true
			}
		} else if frame == p {
			return true
		}
	}
	return false
}

// layerOf charges one stack, listed from the leaf toward the root, to a
// layer: the first frame that is a runtime allocation frame, a runtime
// scheduling frame or a denovosync frame decides. It returns "" for a
// sample of the host-speed probe, which is no part of the simulator.
func layerOf(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "main.hostProbe") {
			return ""
		}
	}
	for _, f := range stack {
		switch {
		case matchAny(f, allocFrames):
			return "runtime.alloc"
		case matchAny(f, schedFrames):
			return "runtime.sched"
		case strings.HasPrefix(f, "main."):
			return "workload"
		case strings.HasPrefix(f, "denovosync/internal/"):
			pkg := strings.TrimPrefix(f, "denovosync/internal/")
			pkg = pkg[:strings.IndexAny(pkg+".", "./")]
			if l, ok := moduleLayers[pkg]; ok {
				return l
			}
			return "other"
		}
	}
	return "other"
}

// parseTraces reads the output of `go tool pprof -traces` and returns the
// sample value charged to each layer and the total, in nanoseconds.
// Probe samples are left out of both.
func parseTraces(r io.Reader) (byLayer map[string]float64, total float64, err error) {
	const separator = "-----------+"
	byLayer = make(map[string]float64)
	var stack []string
	var value float64
	flush := func() {
		if l := layerOf(stack); len(stack) > 0 && l != "" {
			byLayer[l] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, separator) {
			flush()
			inSample = true
			continue
		}
		if !inSample || len(line) < 13 || line[10] == ':' {
			continue // header, or a sample label line
		}
		field, frame := strings.TrimSpace(line[:10]), strings.TrimSpace(line[10:])
		frame = strings.TrimSuffix(frame, " (inline)")
		if field != "" {
			flush()
			if value, err = parseValue(field); err != nil {
				return nil, 0, err
			}
		}
		stack = append(stack, frame)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("profile has no samples")
	}
	return byLayer, total, nil
}

// parseValue reads a pprof time value such as "10ms" or "1.50s" as
// nanoseconds.
func parseValue(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i < 0 {
		i = len(s)
	}
	n, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("sample value %q: %w", s, err)
	}
	scale, ok := map[string]float64{
		"": 1, "ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9,
	}[s[i:]]
	if !ok {
		return 0, fmt.Errorf("sample value %q: unknown unit", s)
	}
	return n * scale, nil
}

// attribute charges the samples of a CPU profile file to layers. It
// returns each layer's self share in percent and the profile's total
// sampled CPU time in nanoseconds.
func attribute(profile string) (shares map[string]float64, totalNS float64, err error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces %s: %w: %s", profile, err, stderr.Bytes())
	}
	byLayer, totalNS, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", profile, err)
	}
	shares = make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 100 * byLayer[l] / totalNS
	}
	return shares, totalNS, nil
}
