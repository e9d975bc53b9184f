package tip

import "testing"

// TestClientSlotReuse exercises the free-list recycling of closed client
// slots: a service workload opens a hint stream per session, and the clients
// slice (walked by every partition recompute) must stay bounded by the
// concurrent peak, not by the total sessions ever served.
func TestClientSlotReuse(t *testing.T) {
	r := newRig(t, smallTIP(), smallDisk())
	f := r.fs.MustCreate("a", make([]byte, 64<<10))

	a := r.m.NewClient()
	b := r.m.NewClient()
	if a.ID() == b.ID() {
		t.Fatalf("distinct clients share id %d", a.ID())
	}
	a.HintSeg(f, 0, 8192)
	r.clk.Drain()
	aID, aHints := a.ID(), a.Stats().HintCalls
	if aHints != 1 {
		t.Fatalf("A HintCalls = %d, want 1", aHints)
	}

	a.Close()
	c := r.m.NewClient()
	if c.ID() != aID {
		t.Errorf("NewClient after Close = id %d, want reused slot %d", c.ID(), aID)
	}
	if got := c.Stats().HintCalls; got != 0 {
		t.Errorf("reused slot inherited %d hint calls, want fresh 0", got)
	}
	// The aggregate keeps the retired client's counters.
	if st := r.m.Stats(); st.HintCalls != 1 {
		t.Errorf("aggregate HintCalls = %d after slot reuse, want 1", st.HintCalls)
	}
	c.HintSeg(f, 8192, 8192)
	r.clk.Drain()
	if st := r.m.Stats(); st.HintCalls != 2 {
		t.Errorf("aggregate HintCalls = %d, want 2 (retired + live)", st.HintCalls)
	}

	// Churn many sessions through one slot: the slice must not grow.
	for i := 0; i < 100; i++ {
		s := r.m.NewClient()
		s.HintSeg(f, 0, 4096)
		s.Close()
	}
	if n := len(r.m.clients); n > 3 {
		t.Errorf("clients slice grew to %d across churn, want <= 3", n)
	}

	// Closing twice must not double-free the slot.
	c.Close()
	c.Close()
	d := r.m.NewClient()
	e := r.m.NewClient()
	if d.ID() == e.ID() {
		t.Errorf("double Close double-freed slot: D and E share id %d", d.ID())
	}
}
