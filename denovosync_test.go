package denovosync_test

import (
	"strings"
	"testing"

	"denovosync"
)

// TestQuickstartAPI exercises the documented public-API quick start.
func TestQuickstartAPI(t *testing.T) {
	space := denovosync.NewSpace()
	flag := space.AllocPadded(space.Region("sync"))
	m := denovosync.NewMachine(denovosync.Params16(), denovosync.DeNovoSync, space)
	var got uint64
	rs, err := m.Run("handoff", func(th *denovosync.Thread) {
		switch th.ID {
		case 0:
			th.Compute(100)
			th.SyncStore(flag, 1)
		case 1:
			got = th.SpinSyncLoadUntil(flag, func(v uint64) bool { return v == 1 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("consumer read %d", got)
	}
	if rs.ExecTime == 0 {
		t.Fatal("zero exec time")
	}
}

// TestPublicSyncLibrary drives every exported synchronization construct
// through the façade on one machine.
func TestPublicSyncLibrary(t *testing.T) {
	space := denovosync.NewSpace()
	dataRegion := space.Region("data")
	data := space.AllocAligned(4, dataRegion)
	lk := denovosync.NewTATASLock(space, space.Region("lk"), denovosync.NewRegionSet(dataRegion), true)
	al := denovosync.NewArrayLock(space, space.Region("al"), 0, 16)
	bar := denovosync.NewTreeBarrier(space, space.Region("bar"), 0, 16, 2, 2)
	cb := denovosync.NewCentralBarrier(space, space.Region("cbar"), 0, 16)

	m := denovosync.NewMachine(denovosync.Params16(), denovosync.DeNovoSync0, space)
	m.Store.Write(al.SlotAddr(0), 1)
	q := denovosync.NewMSQueue(space, m.Store)
	pq := denovosync.NewPLJQueue(space, m.Store)
	ts := denovosync.NewTreiberStack(space, m.Store)
	hs := denovosync.NewHerlihyStack(space, m.Store, 80)
	hh := denovosync.NewHerlihyHeap(space, m.Store, 48)
	fc := denovosync.NewFAICounter(space, m.Store)

	_, err := m.Run("library", func(th *denovosync.Thread) {
		tk := lk.Acquire(th)
		v := th.Load(data)
		th.Store(data, v+1)
		th.Fence()
		lk.Release(th, tk)

		tk = al.Acquire(th)
		th.Compute(10)
		al.Release(th, tk)

		bar.Wait(th)
		q.Enqueue(th, uint64(th.ID))
		pq.Enqueue(th, uint64(th.ID))
		ts.Push(th, uint64(th.ID))
		hs.Push(th, uint64(th.ID))
		hh.Insert(th, uint64(th.ID))
		fc.Increment(th)
		cb.Wait(th)
		if _, ok := q.Dequeue(th); !ok {
			panic("queue lost an element")
		}
		bar.Wait(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Read(data); got != 16 {
		t.Fatalf("lock-protected counter = %d", got)
	}
}

// TestKernelAndAppFacades spot-check the evaluation entry points.
func TestKernelAndAppFacades(t *testing.T) {
	if len(denovosync.Kernels()) != 24 {
		t.Fatal("kernel façade broken")
	}
	if len(denovosync.Apps()) != 13 {
		t.Fatal("app façade broken")
	}
	k, ok := denovosync.KernelByID("bar-tree")
	if !ok {
		t.Fatal("KernelByID broken")
	}
	m := denovosync.NewMachine(denovosync.Params16(), denovosync.MESI, denovosync.NewSpace())
	if _, err := denovosync.RunKernel(k, m, denovosync.KernelConfig{Cores: 16, Iters: 3, EqChecks: -1}); err != nil {
		t.Fatal(err)
	}
	a, ok := denovosync.AppByID("ocean")
	if !ok {
		t.Fatal("AppByID broken")
	}
	m2 := denovosync.NewMachine(denovosync.Params16(), denovosync.DeNovoSync, denovosync.NewSpace())
	if _, err := denovosync.RunApp(a, m2, 8); err != nil {
		t.Fatal(err)
	}
}

// TestFigureRendering runs a tiny Figure 4 and checks the render shape.
func TestFigureRendering(t *testing.T) {
	f, err := denovosync.Reproduce("fig4", 16, denovosync.FigureOptions{Scale: 25})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Array locks", "single Q", "heap", "large CS", "SYNCH", "execution time", "network traffic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	f.CSV(&csv)
	if lines := strings.Count(csv.String(), "\n"); lines != 1+6*3 {
		t.Fatalf("CSV rows = %d, want 19", lines)
	}
	if e, tr := f.GeoMeanVsMESI(denovosync.DeNovoSync); e <= 0 || tr <= 0 || tr >= 1.5 {
		t.Fatalf("implausible geomeans: %f %f", e, tr)
	}
}
