// Package workload generates the IOR-like access pattern of the
// paper's evaluation: N application processes, each pinned to a core,
// each performing synchronous sequential reads of a fixed transfer size
// over its file until a byte budget is exhausted — with the added
// per-request compute ("encrypt") that the client's cost model charges.
package workload

import (
	"fmt"

	"sais/internal/client"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// IORConfig describes one client's process set.
type IORConfig struct {
	Procs        int         // application processes; process i is pinned to core i mod cores
	TransferSize units.Bytes // bytes per read()/write() call
	BytesPerProc units.Bytes // total bytes each process transfers
	FirstFile    pfs.FileID  // process i uses FirstFile + i
	Stagger      units.Time  // start offset between processes
	Write        bool        // run the write workload instead of reads
	// RandomAccess permutes each process's transfer order (IOR's random
	// option), defeating server-side readahead. Seed controls the
	// permutation.
	RandomAccess bool
	Seed         uint64
}

// Validate checks the workload is runnable.
func (c IORConfig) Validate() error {
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("workload: procs %d must be positive", c.Procs)
	case c.TransferSize <= 0:
		return fmt.Errorf("workload: transfer size must be positive")
	case c.BytesPerProc < c.TransferSize:
		return fmt.Errorf("workload: per-proc bytes %v below one transfer %v", c.BytesPerProc, c.TransferSize)
	case c.Stagger < 0:
		return fmt.Errorf("workload: negative stagger")
	}
	return nil
}

// Transfers returns the number of read() calls each process makes.
func (c IORConfig) Transfers() int {
	return int(c.BytesPerProc / c.TransferSize)
}

// IOR drives the processes of one client node.
type IOR struct {
	cfg       IORConfig
	node      *client.Node
	remaining int
	finished  units.Time
	onDone    sim.Event
}

// NewIOR builds the workload over node. onDone (optional) fires when
// every process has consumed its full byte budget.
func NewIOR(node *client.Node, cfg IORConfig, onDone sim.Event) (*IOR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &IOR{
		cfg:    cfg,
		node:   node,
		onDone: onDone,
	}, nil
}

// Start schedules the process loops on eng beginning at the current
// time.
func (w *IOR) Start(eng *sim.Engine) {
	w.remaining = w.cfg.Procs
	for i := 0; i < w.cfg.Procs; i++ {
		p := w.node.NewProc(i % w.node.Config().Cores)
		l := &procLoop{w: w, proc: i, op: p.Read, order: make([]int, w.cfg.Transfers())}
		if w.cfg.Write {
			l.op = p.Write
		}
		// order[k] is the transfer index of the k-th request: identity
		// for sequential IOR, a seeded permutation for random mode.
		for k := range l.order {
			l.order[k] = k
		}
		if w.cfg.RandomAccess {
			r := rng.New(rng.Derive(w.cfg.Seed, uint64(i)))
			r.Shuffle(len(l.order), func(a, b int) { l.order[a], l.order[b] = l.order[b], l.order[a] })
		}
		l.next = l.step
		eng.After(units.Time(i)*w.cfg.Stagger, l.next)
	}
}

// procLoop is one process's transfer loop; next, bound once, completes
// every transfer, so the loop allocates nothing per transfer.
type procLoop struct {
	w       *IOR
	proc, k int // process index (its file is FirstFile+proc), transfers issued
	op      func(pfs.FileID, units.Bytes, units.Bytes, sim.Event)
	order   []int
	next    sim.Event
}

// step issues the next transfer, or records the process's completion.
func (l *procLoop) step(now units.Time) {
	w := l.w
	if k := l.k; k < len(l.order) {
		l.k++
		l.op(w.cfg.FirstFile+pfs.FileID(l.proc), units.Bytes(l.order[k])*w.cfg.TransferSize, w.cfg.TransferSize, l.next)
		return
	}
	if w.remaining--; w.remaining == 0 {
		w.finished = now
		if w.onDone != nil {
			w.onDone(now)
		}
	}
}

// Finished returns the completion time of the last process (zero while
// running).
func (w *IOR) Finished() units.Time { return w.finished }

// TotalBytes returns the byte budget across all processes.
func (w *IOR) TotalBytes() units.Bytes {
	return units.Bytes(w.cfg.Procs*w.cfg.Transfers()) * w.cfg.TransferSize
}
