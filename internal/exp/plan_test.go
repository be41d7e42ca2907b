package exp

import (
	"fmt"
	"reflect"
	"testing"
)

// TestPlanShard: the n shards of a plan partition its distinct keys
// round-robin in plan order, keep plan order within each shard, take
// every duplicate grid point with its key and keep the plan's identity,
// so together they are exactly the unsharded grid.
func TestPlanShard(t *testing.T) {
	cases := []struct {
		fig   string
		cores int
	}{{"fig3", 16}, {"fig3", 64}, {"fig5", 16}, {"fig5", 64}, {"hwparams", 16}}
	for _, c := range cases {
		plan, err := FigurePlan(c.fig, c.cores, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var distinct []string
		seen := map[string]bool{}
		for _, r := range plan.Runs {
			if k := r.Key(); !seen[k] {
				seen[k] = true
				distinct = append(distinct, k)
			}
		}
		if c.fig == "hwparams" && len(distinct) == len(plan.Runs) {
			t.Fatalf("%s/%dc has no duplicate grid points to shard", c.fig, c.cores)
		}
		for _, n := range []int{1, 2, 3, 7} {
			name := fmt.Sprintf("%s/%dc/n=%d", c.fig, c.cores, n)
			shardOf := map[string]int{}
			total := 0
			for k := 0; k < n; k++ {
				shard, err := plan.Shard(k, n)
				if err != nil {
					t.Fatalf("%s: Shard(%d): %v", name, k, err)
				}
				if n == 1 && !reflect.DeepEqual(shard, plan) {
					t.Fatalf("%s: the one shard differs from the plan", name)
				}
				if shard.ID != plan.ID || shard.Title != plan.Title || shard.Cores != plan.Cores {
					t.Errorf("%s: shard %d is %q/%q/%d, want the plan's %q/%q/%d", name, k,
						shard.ID, shard.Title, shard.Cores, plan.ID, plan.Title, plan.Cores)
				}
				// Plan order: the shard is a subsequence of the plan.
				next := 0
				for _, r := range shard.Runs {
					for next < len(plan.Runs) && !reflect.DeepEqual(plan.Runs[next], r) {
						next++
					}
					if next == len(plan.Runs) {
						t.Fatalf("%s: shard %d is not a subsequence of the plan at %s", name, k, r)
					}
					next++
					key := r.Key()
					if prev, ok := shardOf[key]; ok && prev != k {
						t.Fatalf("%s: key %s in shards %d and %d", name, key, prev, k)
					}
					shardOf[key] = k
				}
				total += len(shard.Runs)
			}
			// Every grid point is in some shard, so every duplicate
			// went with its key.
			if total != len(plan.Runs) {
				t.Errorf("%s: shards hold %d runs, plan %d", name, total, len(plan.Runs))
			}
			for i, key := range distinct {
				if got, ok := shardOf[key]; !ok || got != i%n {
					t.Errorf("%s: distinct key %d (%s) in shard %d (present %t), want %d", name, i, key, got, ok, i%n)
				}
			}
		}
	}

	plan := fakePlan(3)
	for _, kn := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, 0}, {0, -1}} {
		if _, err := plan.Shard(kn[0], kn[1]); err == nil {
			t.Errorf("Shard(%d, %d) accepted", kn[0], kn[1])
		}
	}
}
