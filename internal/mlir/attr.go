package mlir

import (
	"strconv"
	"strings"
)

// Attribute is compile-time metadata attached to ops.
type Attribute interface {
	// String renders the attribute in MLIR-like syntax.
	String() string
}

// IntAttr holds a signed integer constant.
type IntAttr int64

func (a IntAttr) String() string { return strconv.FormatInt(int64(a), 10) }

// FloatAttr holds a float constant.
type FloatAttr float64

func (a FloatAttr) String() string { return strconv.FormatFloat(float64(a), 'g', -1, 64) }

// BoolAttr holds a boolean constant.
type BoolAttr bool

func (a BoolAttr) String() string { return strconv.FormatBool(bool(a)) }

// StringAttr holds a string constant.
type StringAttr string

func (a StringAttr) String() string { return strconv.Quote(string(a)) }

// ArrayAttr is an ordered list of attributes.
type ArrayAttr []Attribute

func (a ArrayAttr) String() string {
	parts := make([]string, len(a))
	for i, e := range a {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// IntsAttr builds an ArrayAttr of IntAttr from ints (shapes, multiplicity
// vectors such as ConDRust's multiplicity = [1, 1, 1, 1]).
func IntsAttr(vals ...int) ArrayAttr {
	arr := make(ArrayAttr, len(vals))
	for i, v := range vals {
		arr[i] = IntAttr(v)
	}
	return arr
}

// StringsAttr builds an ArrayAttr of StringAttr.
func StringsAttr(vals ...string) ArrayAttr {
	arr := make(ArrayAttr, len(vals))
	for i, v := range vals {
		arr[i] = StringAttr(v)
	}
	return arr
}

// GetInt fetches an IntAttr value with a default.
func GetInt(attrs map[string]Attribute, key string, def int64) int64 {
	if v, ok := attrs[key].(IntAttr); ok {
		return int64(v)
	}
	return def
}

// GetString fetches a StringAttr value with a default.
func GetString(attrs map[string]Attribute, key, def string) string {
	if v, ok := attrs[key].(StringAttr); ok {
		return string(v)
	}
	return def
}

// GetBool fetches a BoolAttr value with a default.
func GetBool(attrs map[string]Attribute, key string, def bool) bool {
	if v, ok := attrs[key].(BoolAttr); ok {
		return bool(v)
	}
	return def
}
