package mlir

import (
	"fmt"
	"strings"
)

// Type is the interface satisfied by all IR types. Types are immutable value
// objects; equality is structural via the canonical String form.
type Type interface {
	// String renders the type in MLIR-like syntax (e.g. "tensor<4x8xf64>").
	String() string
}

// FloatType is an IEEE-754 binary float of the given width (16, 32, 64) or
// the truncated bfloat16 when BF is set.
type FloatType struct {
	Width int
	BF    bool
}

func (t FloatType) String() string {
	if t.BF {
		return "bf16"
	}
	return fmt.Sprintf("f%d", t.Width)
}

// IndexType is the platform index type used for subscripts and loop bounds.
type IndexType struct{}

func (IndexType) String() string { return "index" }

// TensorType is an immutable value-semantics tensor. A -1 dim is dynamic.
type TensorType struct {
	Shape []int
	Elem  Type
}

func (t TensorType) String() string {
	return fmt.Sprintf("tensor<%s%s>", dimsString(t.Shape), t.Elem)
}

// Rank returns the number of dimensions.
func (t TensorType) Rank() int { return len(t.Shape) }

// MemRefType is a buffer-semantics tensor living in an addressable memory.
// Space names follow the EVEREST platform model: "host", "ddr", "hbm", "plm"
// (private local memory on the FPGA fabric), "stream".
type MemRefType struct {
	Shape []int
	Elem  Type
	Space string
}

func (t MemRefType) String() string {
	if t.Space == "" {
		return fmt.Sprintf("memref<%s%s>", dimsString(t.Shape), t.Elem)
	}
	return fmt.Sprintf("memref<%s%s, %q>", dimsString(t.Shape), t.Elem, t.Space)
}

// StreamType is a FIFO channel of elements, as used between dataflow actors
// (dfg dialect) and AXI-Stream endpoints.
type StreamType struct {
	Elem  Type
	Depth int // modelled FIFO depth; 0 means implementation-defined
}

func (t StreamType) String() string {
	if t.Depth > 0 {
		return fmt.Sprintf("stream<%s, %d>", t.Elem, t.Depth)
	}
	return fmt.Sprintf("stream<%s>", t.Elem)
}

func dimsString(shape []int) string {
	var b strings.Builder
	for _, d := range shape {
		if d < 0 {
			b.WriteString("?x")
		} else {
			fmt.Fprintf(&b, "%dx", d)
		}
	}
	return b.String()
}

// Convenience constructors used throughout the SDK.

// F64 returns the 64-bit float type.
func F64() Type { return FloatType{Width: 64} }

// F32 returns the 32-bit float type.
func F32() Type { return FloatType{Width: 32} }

// Index returns the index type.
func Index() Type { return IndexType{} }

// TensorOf builds a TensorType.
func TensorOf(elem Type, shape ...int) TensorType { return TensorType{Shape: shape, Elem: elem} }

// MemRefOf builds a MemRefType in the given memory space.
func MemRefOf(elem Type, space string, shape ...int) MemRefType {
	return MemRefType{Shape: shape, Elem: elem, Space: space}
}
