package denovo

import (
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// FuzzBackoffCounterWrap checks the §4.2 backoff machinery against a
// direct model of the spec arithmetic for arbitrary counter widths and
// increment cadences: the counter wraps to zero on overflow (§4.2.1,
// modulo 2^bits), the adaptive increment grows by DefaultIncrement every
// IncEveryN remote sync reads and saturates at the mask (§4.2.2), and
// neither ever leaves the counter's range. The seed corpus pins the two
// configurations the paper evaluates: 9 bits at 16 cores and 12 bits at
// 64 cores (§5.2).
func FuzzBackoffCounterWrap(f *testing.F) {
	f.Add(uint8(9), uint16(1), uint8(16), uint16(600))
	f.Add(uint8(12), uint16(64), uint8(64), uint16(5000))
	f.Add(uint8(1), uint16(1), uint8(1), uint16(100))
	f.Add(uint8(12), uint16(4095), uint8(2), uint16(200))
	f.Fuzz(func(t *testing.T, bits uint8, inc uint16, everyN uint8, reads uint16) {
		cfg := &Config{
			Backoff:          true,
			BackoffBits:      uint(bits%63) + 1,
			DefaultIncrement: sim.Cycle(inc),
			IncEveryN:        int(everyN),
		}
		l1 := &L1{cfg: cfg, incCtr: cfg.initialIncrement()}
		mask := cfg.backoffMask()

		var ctr, incCtr sim.Cycle
		incCtr = cfg.initialIncrement()
		for i := 1; i <= int(reads)%2048; i++ {
			l1.noteRemoteSyncRead()
			ctr = (ctr + incCtr) & mask
			if cfg.IncEveryN > 0 && i%cfg.IncEveryN == 0 {
				incCtr += cfg.DefaultIncrement
				if incCtr > mask {
					incCtr = mask
				}
			}
			if l1.backoffCtr != ctr {
				t.Fatalf("read %d: backoffCtr = %d, model %d (bits=%d inc=%d everyN=%d)",
					i, l1.backoffCtr, ctr, cfg.BackoffBits, inc, everyN)
			}
			if l1.incCtr != incCtr {
				t.Fatalf("read %d: incCtr = %d, model %d", i, l1.incCtr, incCtr)
			}
			if l1.backoffCtr > mask || l1.incCtr > mask {
				t.Fatalf("read %d: counter escaped its %d-bit range", i, cfg.BackoffBits)
			}
		}
	})
}

// FuzzMSHRSyncParking drives arbitrary interleavings of sync fetch-adds
// and sync loads from all four mini-system cores at a handful of words,
// with the event engine pumped in fuzz-chosen slices so registration
// forwards arrive while the target's own registration is still pending —
// the §4.1 MSHR parking path. Invariants checked after the drain:
//
//   - every access completed exactly once (no registration was dropped or
//     double-serviced along a parked forward chain);
//   - each word's committed value equals its fetch-add count (atomicity
//     survives arbitrary distributed-queue handoffs);
//   - no transaction or parked forward is left behind, and the registry's
//     single-registrant invariant holds (Validate).
//
// The seed corpus includes the degenerate all-cores-one-word script that
// maximizes parking depth.
func FuzzMSHRSyncParking(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x02, 0x03})       // 4 cores FAI one word, no pumping
	f.Add([]byte{0x04, 0x05, 0x06, 0x07, 0x04, 0x05, 0x06, 0x07})       // sync loads chase one word
	f.Add([]byte{0x00, 0x44, 0x10, 0x54, 0x21, 0x65, 0x32, 0x76, 0x03}) // mixed words, partial pumps
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		eng, reg, l1s := mini()
		addrs := []proto.Addr{0x100, 0x104, 0x180, 0x1040}
		faiCount := make(map[proto.Addr]uint64)
		issued, completed := 0, 0

		for _, b := range script {
			l1 := l1s[int(b&3)]
			addr := addrs[int(b>>4)&3]
			req := proto.Request{Addr: addr, Done: func(uint64) { completed++ }}
			if b&4 == 0 {
				req.Kind = proto.SyncRMW
				req.RMW, req.Args[0] = proto.RMWFetchAdd, 1
				faiCount[addr]++
			} else {
				req.Kind = proto.SyncLoad
			}
			issued++
			l1.Access(req)
			// A fuzz-chosen partial pump (0 keeps everything in flight,
			// maximizing overlap with the next issue).
			if pump := uint64(b >> 6); pump > 0 {
				eng.Run(pump)
			}
		}
		eng.Run(0)

		if completed != issued {
			t.Fatalf("completed %d of %d accesses", completed, issued)
		}
		for addr, want := range faiCount {
			if got := eng.Now(); got == 0 {
				t.Fatalf("engine never advanced despite %d accesses", issued)
			}
			if got := reg.cfg.Store.Read(addr); got != want {
				t.Fatalf("word %#x = %d after %d fetch-adds", uint64(addr), got, want)
			}
		}
		for i, l1 := range l1s {
			if n := len(l1.txns); n != 0 {
				t.Fatalf("L1 %d left %d transactions (parked forwards leak)", i, n)
			}
		}
		if err := reg.Validate(l1s); err != nil {
			t.Fatal(err)
		}
	})
}
