package mlir

import (
	"fmt"
	"strings"
	"time"
)

// Pass is a module-level transformation or analysis.
type Pass interface {
	// Name identifies the pass in pipeline dumps ("ekl-to-teil").
	Name() string
	// Run mutates or analyses the module. Errors abort the pipeline.
	Run(m *Module) error
}

// PassFunc adapts a function to the Pass interface.
type PassFunc struct {
	PassName string
	Fn       func(m *Module) error
}

// Name returns the pass name.
func (p PassFunc) Name() string { return p.PassName }

// Run invokes the wrapped function.
func (p PassFunc) Run(m *Module) error { return p.Fn(m) }

// PassStat records one pass execution for diagnostics and the E2 experiment.
type PassStat struct {
	Pass     string
	Duration time.Duration
	OpsAfter int
}

// PassManager runs a pipeline of passes with verification between stages.
type PassManager struct {
	passes     []Pass
	VerifyEach bool // verify the module after every pass (default true via NewPassManager)
	Stats      []PassStat
	DumpEachTo *strings.Builder // optional: textual IR after each pass
}

// NewPassManager returns a PassManager with per-pass verification enabled.
func NewPassManager() *PassManager { return &PassManager{VerifyEach: true} }

// Add appends passes to the pipeline and returns the manager for chaining.
func (pm *PassManager) Add(passes ...Pass) *PassManager {
	pm.passes = append(pm.passes, passes...)
	return pm
}

// Run executes the pipeline. On error it reports which pass failed. Stats
// are recorded for each executed pass.
func (pm *PassManager) Run(m *Module) error {
	pm.Stats = pm.Stats[:0]
	for _, p := range pm.passes {
		start := time.Now()
		err := p.Run(m)
		stat := PassStat{Pass: p.Name(), Duration: time.Since(start)}
		if err == nil {
			n := 0
			m.Walk(func(*Op) { n++ })
			stat.OpsAfter = n
		}
		pm.Stats = append(pm.Stats, stat)
		if err != nil {
			return fmt.Errorf("pass %q failed: %w", p.Name(), err)
		}
		if pm.VerifyEach {
			if err := m.Verify(); err != nil {
				return fmt.Errorf("verification after pass %q failed: %w", p.Name(), err)
			}
		}
		if pm.DumpEachTo != nil {
			fmt.Fprintf(pm.DumpEachTo, "// ----- after %s -----\n%s\n", p.Name(), m.String())
		}
	}
	return nil
}
