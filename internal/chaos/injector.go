// The injector turns a Schedule's rates and the controller's partition set
// into per-operation rdma.FaultOutcome decisions. Policy lives here, per the
// fabric's contract: the fabric executes outcomes, the injector decides.
//
// Link policy:
//
//   - client↔server links carry the probabilistic faults (drop, duplicate,
//     reorder, delay). Every one of these is survivable by the client's
//     request protocol: a lost request or response parks the client until
//     RequestTimeout, which refreshes routing (fresh connections, fresh
//     mailbox cursors) and retries.
//   - server↔server links (replication, coordination) receive only the
//     scripted partition errors and scheduled delays — never silent drops.
//     On RC hardware sustained loss surfaces as a QP/completion error, not
//     silence; modeling it as Err is what lets the replication layer's
//     gap catch-up repair the stream after heal.
package chaos

import (
	"strings"
	"sync"
	"sync/atomic"

	"hydradb/internal/rdma"
)

// Injector converts fault schedules into fabric outcomes. Install with
// fabric.SetFaultHook(in.Hook).
type Injector struct {
	sched Schedule

	// ops counts intercepted client-link operations; the fault decision for
	// op k is a pure function of (seed, k).
	ops     atomic.Uint64
	srvOps  atomic.Uint64
	stopped atomic.Bool

	mu          sync.Mutex
	partitioned map[string]bool // server NIC names cut from other servers

	// Injected counts per class, for run reporting.
	Drops, Dups, Reorders, Delays, PartitionErrs atomic.Int64
}

// NewInjector builds an injector for the schedule.
func NewInjector(s Schedule) *Injector {
	return &Injector{sched: s, partitioned: map[string]bool{}}
}

// Partition cuts nicName (a server machine's adaptor) off from the other
// server machines. Client links are unaffected.
func (in *Injector) Partition(nicName string) {
	in.mu.Lock()
	in.partitioned[nicName] = true
	in.mu.Unlock()
}

// Heal lifts all partitions.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.partitioned = map[string]bool{}
	in.mu.Unlock()
}

// Quiesce permanently disables all fault injection (final verification).
func (in *Injector) Quiesce() {
	in.stopped.Store(true)
	in.Heal()
}

// splitmix64 is the decision hash: cheap, stateless, and good enough to
// decorrelate consecutive op indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func isClientNIC(name string) bool { return strings.HasPrefix(name, "client-") }

// Hook is the rdma.FaultHook the harness installs on the fabric.
func (in *Injector) Hook(verb rdma.Verb, local, remote *rdma.NIC, nbytes int) rdma.FaultOutcome {
	if in.stopped.Load() {
		return rdma.FaultOutcome{}
	}
	ln, rn := local.Name(), remote.Name()
	if isClientNIC(ln) || isClientNIC(rn) {
		return in.clientFault()
	}
	return in.serverFault(ln, rn)
}

// clientFault rolls the probabilistic client-link faults for the next op
// index. Cumulative thresholds over one roll keep classes exclusive.
func (in *Injector) clientFault() rdma.FaultOutcome {
	idx := in.ops.Add(1)
	roll := int(splitmix64(in.sched.Seed^idx) % 10000)
	s := &in.sched
	if roll < s.DropRate {
		in.Drops.Add(1)
		return rdma.FaultOutcome{Drop: true}
	}
	roll -= s.DropRate
	if roll < s.DupRate {
		in.Dups.Add(1)
		return rdma.FaultOutcome{Duplicate: true}
	}
	roll -= s.DupRate
	if roll < s.ReorderRate {
		in.Reorders.Add(1)
		return rdma.FaultOutcome{Reorder: true}
	}
	roll -= s.ReorderRate
	if roll < s.DelayRate {
		in.Delays.Add(1)
		return rdma.FaultOutcome{DelayNs: s.DelayNs}
	}
	return rdma.FaultOutcome{}
}

// serverFault applies the scripted partitions and scheduled delays to a
// server↔server operation.
func (in *Injector) serverFault(ln, rn string) rdma.FaultOutcome {
	in.mu.Lock()
	cut := len(in.partitioned) > 0 && (in.partitioned[ln] || in.partitioned[rn])
	in.mu.Unlock()
	if cut {
		in.PartitionErrs.Add(1)
		return rdma.FaultOutcome{Err: rdma.ErrInjected}
	}
	if s := &in.sched; s.SrvDelayRate > 0 {
		idx := in.srvOps.Add(1)
		if int(splitmix64(s.Seed^(idx|1<<63))%10000) < s.SrvDelayRate {
			in.Delays.Add(1)
			return rdma.FaultOutcome{DelayNs: s.SrvDelayNs}
		}
	}
	return rdma.FaultOutcome{}
}
