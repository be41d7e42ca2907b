// Command denovosim runs one workload (a synchronization kernel or an
// application model) on one protocol and machine size, and prints the full
// statistics — the single-experiment entry point.
//
// Usage:
//
//	denovosim -list
//	denovosim -kernel tatas-single-q -protocol DS -cores 16
//	denovosim -app canneal -protocol M
//	denovosim -kernel nb-m-s-queue -protocol DS0 -cores 64 -iters 20
package main

import (
	"flag"
	"fmt"
	"os"

	"denovosync"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available kernels and apps")
		kernelID = flag.String("kernel", "", "kernel slug (see -list)")
		appID    = flag.String("app", "", "application slug (see -list)")
		protName = flag.String("protocol", "DS", "protocol: M, DS0 or DS")
		cores    = flag.Int("cores", 0, "16 or 64 (default: kernel 16, app per paper)")
		iters    = flag.Int("iters", 0, "override kernel iteration count")
		scale    = flag.Int("scale", 1, "application workload divisor")
		seed     = flag.Uint64("seed", 1, "deterministic RNG seed")
		traceN   = flag.Int("trace", 0, "log the first N network messages to stderr")
		watchdog = flag.Uint64("watchdog-cycles", 100_000_000,
			"abort with a diagnostic snapshot if no core retires an operation for this many cycles (0 disables)")
	)
	flag.Parse()

	if *list {
		fmt.Println("Synchronization kernels (-kernel):")
		for _, k := range denovosync.Kernels() {
			fmt.Printf("  %-22s %-12s (%q, %d iters)\n", k.ID, k.Group, k.Name, k.DefaultIters)
		}
		fmt.Println("Applications (-app, inputs are the Table 2 analog):")
		for _, a := range denovosync.Apps() {
			fmt.Printf("  %-14s %-16s %2d cores  %s\n", a.ID, a.Pattern, a.DefaultCores, a.Input)
		}
		return
	}

	prot, ok := parseProtocol(*protName)
	if !ok {
		fatalf("unknown protocol %q (want M, DS0 or DS)", *protName)
	}

	switch {
	case *kernelID != "" && *appID != "":
		fatalf("choose one of -kernel or -app")
	case *kernelID != "":
		k, ok := denovosync.KernelByID(*kernelID)
		if !ok {
			fatalf("unknown kernel %q (try -list)", *kernelID)
		}
		n := *cores
		if n == 0 {
			n = 16
		}
		p := paramsFor(n)
		p.Seed = *seed
		p.WatchdogCycles = denovosync.Cycle(*watchdog)
		m := denovosync.NewMachine(p, prot, denovosync.NewSpace())
		if *traceN > 0 {
			m.EnableTrace(os.Stderr, denovosync.AllMsgClasses, *traceN)
		}
		rs, err := denovosync.RunKernel(k, m, denovosync.KernelConfig{Cores: n, Iters: *iters, EqChecks: -1})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(rs)
	case *appID != "":
		a, ok := denovosync.AppByID(*appID)
		if !ok {
			fatalf("unknown app %q (try -list)", *appID)
		}
		n := *cores
		if n == 0 {
			n = a.DefaultCores
		}
		p := paramsFor(n)
		p.Seed = *seed
		p.WatchdogCycles = denovosync.Cycle(*watchdog)
		m := denovosync.NewMachine(p, prot, denovosync.NewSpace())
		if *traceN > 0 {
			m.EnableTrace(os.Stderr, denovosync.AllMsgClasses, *traceN)
		}
		rs, err := denovosync.RunApp(a, m, *scale)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(rs)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseProtocol(s string) (denovosync.Protocol, bool) {
	switch s {
	case "M", "MESI", "mesi":
		return denovosync.MESI, true
	case "DS0", "ds0", "DeNovoSync0":
		return denovosync.DeNovoSync0, true
	case "DS", "ds", "DeNovoSync":
		return denovosync.DeNovoSync, true
	}
	return 0, false
}

func paramsFor(cores int) denovosync.Params {
	switch cores {
	case 16:
		return denovosync.Params16()
	case 64:
		return denovosync.Params64()
	}
	fatalf("unsupported core count %d (want 16 or 64)", cores)
	panic("unreachable")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "denovosim: "+format+"\n", args...)
	os.Exit(1)
}
