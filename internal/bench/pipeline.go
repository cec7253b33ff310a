package bench

import (
	"fmt"
	"time"

	"hydradb"
	"hydradb/internal/stats"
	"hydradb/internal/timing"
)

// PipelineMicro measures the live (real goroutines, simulated verbs) message
// GET path under an increasing mailbox ring depth, the one bound on requests
// in flight per connection. Depth 1 is the sequential synchronous client
// over the paper's single-slot protocol, and deeper rings batch through
// MultiGet, so the table shows directly what the ring depth buys. Run via:
// hydra-bench -fig pipeline.
func PipelineMicro(s Scale) *stats.Table {
	ops := s.Ops / 4
	if ops < 4000 {
		ops = 4000
	}
	tbl := &stats.Table{
		Title:   "pipelined message GETs — live fabric, ring-depth sweep",
		Headers: []string{"ring depth", "ops/s", "ns/op", "vs depth=1"},
	}
	var base float64
	for _, w := range []int{1, 2, 4, 8, 16} {
		opts := hydradb.DefaultOptions()
		opts.ShardsPerMachine = 1
		opts.DisableRDMARead = true // isolate the message path
		opts.ArenaBytesPerShard = 16 << 20
		opts.MaxItemsPerShard = 1 << 16
		opts.RingDepth = w
		db, err := hydradb.Start(opts)
		if err != nil {
			panic(err)
		}
		c := db.NewClient()
		const batch = 16
		keys := make([][]byte, batch)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("pipekey%03dbytes", i))
			if err := c.Put(keys[i], make([]byte, 32)); err != nil {
				panic(err)
			}
		}
		if _, err := c.MultiGet(keys); err != nil { // warm the scratch
			panic(err)
		}
		clk := timing.Wall() // wall-clock measurement of a live run, not data-plane time
		start := clk.Now()
		done := 0
		for done < ops {
			if w == 1 {
				if _, err := c.Get(keys[done%batch]); err != nil {
					panic(err)
				}
				done++
			} else {
				if _, err := c.MultiGet(keys); err != nil {
					panic(err)
				}
				done += batch
			}
		}
		elapsed := time.Duration(clk.Now() - start)
		db.Close()
		rate := float64(done) / elapsed.Seconds()
		if w == 1 {
			base = rate
		}
		tbl.AddRow(
			fmt.Sprintf("%d", w),
			f1(rate),
			f1(float64(elapsed.Nanoseconds())/float64(done)),
			fmt.Sprintf("%.2fx", rate/base),
		)
	}
	return tbl
}
