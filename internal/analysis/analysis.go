// Package analysis is the static-analysis layer over vm programs: a
// control-flow-graph builder, a small dataflow framework (reaching
// definitions and a taint lattice), a static hint synthesizer that
// classifies every read site and predicts the paper's Table 4 hint-coverage
// numbers without running the program, and speclint, a shadow-text verifier that checks every invariant the SpecHint
// transform (internal/spechint) is supposed to establish.
//
// The paper's tool is itself a static binary analysis (§3.3: resolving
// control transfers, recognizing jump-table idioms, rewriting loads and
// stores), and its §6 future work asks for deeper static analysis to make
// speculation cheaper and more accurate. This package supplies that layer:
//
//   - CFG (cfg.go): basic blocks, successor/predecessor edges including
//     jump-table edges, the call graph, dominators, and reachability.
//   - Dataflow (dataflow.go): classic reaching definitions over the CFG,
//     built on the instruction use-def accessors vm.Instr exposes.
//   - Taint/classification (taint.go): an abstract
//     interpretation whose lattice tracks what runtime input each value
//     depends on — nothing (constants), the static argument data (argv),
//     first-level file metadata (headers), or arbitrary file data — and
//     classifies every read call site into the paper's access-pattern
//     classes: argv-determined (Agrep), header-determined (XDataSlice), or
//     data-dependent (Gnuld).
//   - speclint (speclint.go): verifies a transformed program's shadow text
//     against the transform invariants and reports violations with
//     disassembly context.
package analysis

// Config parameterizes the analyses.
type Config struct {
	// JumpTableLookback is how many instructions before an indirect jump
	// the recognizer scans for the table-load idiom, mirroring
	// spechint.Options.JumpTableLookback.
	JumpTableLookback int
}

// DefaultConfig matches spechint.DefaultOptions.
func DefaultConfig() Config { return Config{JumpTableLookback: 4} }
