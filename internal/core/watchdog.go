package core

import (
	"fmt"
	"strings"

	"spechint/internal/vm"
)

// diagnose assembles a deadlock/watchdog diagnostic: instead of a bare
// "deadlock" error (or a panic deep in a completion callback), the run fails
// with the state needed to debug it — thread states and PCs, the pending
// read, event-queue and disk-queue depths. reason says what tripped the
// watchdog.
func (s *System) diagnose(reason string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %s: %s\n", s.name, reason)
	fmt.Fprintf(&b, "  cycle %d, %d pending events\n", s.clk.Now(), s.clk.Len())
	describe := func(t *vm.Thread) {
		if t == nil {
			return
		}
		fmt.Fprintf(&b, "  thread %-12s %-8v pc=%d instrs=%d\n", t.Name, t.State, t.PC, t.Instrs)
	}
	describe(s.orig)
	describe(s.spec)
	if p := s.pending; p != nil {
		fmt.Fprintf(&b, "  pending read: %s fd=%d off=%d n=%d (site pc=%d)\n",
			p.file.Name, p.fd, p.off, p.n, p.pc-1)
	} else {
		b.WriteString("  pending read: none\n")
	}
	cfg := s.arr.Config()
	for i := 0; i < cfg.NumDisks; i++ {
		fmt.Fprintf(&b, "  disk %d: busy=%v dead=%v queued=%d\n",
			i, s.arr.Busy(i), s.arr.Dead(i), s.arr.QueueDepth(i))
	}
	fmt.Fprintf(&b, "  cache: %d/%d buffers in use", s.tip.Cache().Len(), s.tip.Cache().Capacity())
	return fmt.Errorf("%s", b.String())
}

// watchdog records a fatal runtime inconsistency discovered inside a
// completion callback, where returning an error is impossible and panicking
// would lose all simulation state. The run loop surfaces it on its next
// iteration.
func (s *System) watchdog(reason string) {
	if s.watchdogErr == nil {
		s.watchdogErr = s.diagnose(reason)
	}
}
