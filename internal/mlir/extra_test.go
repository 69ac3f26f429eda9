package mlir

import (
	"strings"
	"testing"
	"time"
)

func TestPassManagerDump(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "dump")
	b := NewBuilder(ctx, m.Body())
	_, _, fb := buildFunc(b, "f")
	ret(fb, fb.ConstantFloat(1, F64()))

	var dump strings.Builder
	pm := NewPassManager()
	pm.DumpEachTo = &dump
	noop := func(*Module) error { return nil }
	pm.Add(PassFunc{PassName: "noop", Fn: noop}).Add(PassFunc{PassName: "again", Fn: noop})
	if err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	text := dump.String()
	if !strings.Contains(text, "after noop") || !strings.Contains(text, "after again") {
		t.Error("dump must include per-pass sections")
	}
	for _, st := range pm.Stats {
		if st.Duration < 0 || st.Duration > time.Minute {
			t.Errorf("implausible pass duration %v", st.Duration)
		}
		if st.OpsAfter <= 0 {
			t.Errorf("OpsAfter not recorded for %s", st.Pass)
		}
	}
}

func TestPassManagerErrorPropagation(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "err")
	pm := NewPassManager().Add(PassFunc{PassName: "boom", Fn: func(*Module) error {
		return &VerifyError{Op: "x", Err: errSentinel}
	}})
	err := pm.Run(m)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("pass error must name the pass: %v", err)
	}
	if len(pm.Stats) != 1 || pm.Stats[0].Pass != "boom" {
		t.Errorf("stats %+v, want the failing pass recorded", pm.Stats)
	}
}

type sentinelError struct{}

func (sentinelError) Error() string { return "sentinel" }

var errSentinel = sentinelError{}

func TestVerifyErrorUnwrap(t *testing.T) {
	ve := &VerifyError{Op: "a.b", Err: errSentinel}
	if ve.Unwrap() != errSentinel {
		t.Error("Unwrap broken")
	}
	if !strings.Contains(ve.Error(), "a.b") {
		t.Error("Error() must name the op")
	}
}

func TestTypeMiscellany(t *testing.T) {
	st := StreamType{Elem: F64()}
	if st.String() != "stream<f64>" {
		t.Errorf("depthless stream = %q", st.String())
	}
	mr := MemRefOf(F64(), "", 4)
	if mr.String() != "memref<4xf64>" {
		t.Errorf("spaceless memref = %q", mr.String())
	}
	if TensorOf(F64(), 2, 3).Rank() != 2 {
		t.Error("tensor rank")
	}
}

func TestAttrStrings(t *testing.T) {
	if IntAttr(-3).String() != "-3" {
		t.Error("IntAttr")
	}
	if FloatAttr(2.5).String() != "2.5" {
		t.Error("FloatAttr")
	}
	if BoolAttr(true).String() != "true" {
		t.Error("BoolAttr")
	}
	arr := IntsAttr(1, 2, 3)
	if arr.String() != "[1, 2, 3]" {
		t.Errorf("ArrayAttr = %q", arr.String())
	}
	sarr := StringsAttr("a", "b")
	if sarr.String() != `["a", "b"]` {
		t.Errorf("StringsAttr = %q", sarr.String())
	}
}

func TestModuleHelpers(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "helpers")
	if m.Context() != ctx {
		t.Error("module context broken")
	}
	b := NewBuilder(ctx, m.Body())
	buildFunc(b, "a")
	buildFunc(b, "b")
	blocks := 0
	m.WalkBlocks(func(*Block) { blocks++ })
	if blocks != 3 { // module body + two func bodies
		t.Errorf("WalkBlocks visited %d, want 3", blocks)
	}
}

func TestBuilderPanicsOnUnqualifiedName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Create with unqualified name must panic")
		}
	}()
	ctx := NewContext()
	m := NewModule(ctx, "p")
	NewBuilder(ctx, m.Body()).Create("noqualifier", nil, nil, nil)
}
