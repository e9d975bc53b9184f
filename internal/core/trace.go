package core

// The core's event names on the cross-layer obs stream (Cat "core").
const (
	evRead      = "read"       // a read call by the original thread
	evReadDone  = "read-done"  // the completion of a blocking read
	evReadError = "read-error" // a demand read that surfaced an I/O error (EIO)
	evHint      = "hint"       // a hint issued by the speculating thread
	evOffTrack  = "off-track"  // an off-track detection by the original thread
	evRestart   = "restart"    // a completed speculation restart
	evThrottle  = "throttle"   // a speculation disable by a §5 limiter
	evSignal    = "signal"     // a speculative exception
)

// trace emits a core event on the cross-layer obs stream, under this
// process's lane. obs is the only recorder: it owns the capacity bound and the
// dropped count. Callers check s.obs.Enabled() first, so an untraced run
// boxes no argument (the root package's TestTraceCallsGuarded holds them to
// it).
func (s *System) trace(name, format string, args ...any) {
	if s.obs.Enabled() {
		s.obs.Emitf(s.clk.Now(), s.name, "core", name, format, args...)
	}
}
