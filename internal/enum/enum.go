// Package enum names the values of the small int enums a sort is
// configured with (network, run former, algorithm, pivot strategy,
// topology, disk access mode).  Each enum keeps its names in one Table
// indexed by value, and its String, MarshalText and UnmarshalText
// methods all read that table, so a name is written once: a flag
// (flag.TextVar), a JSON field and Go code carry the same typed value,
// and a value the table does not name is refused by Valid.
package enum

import (
	"encoding"
	"errors"
	"fmt"
	"strings"
)

// Table names the values of one enum: Names[e] is value e's name, and
// Kind says what the enum selects ("topology"), for messages.
type Table[E ~int] struct {
	Kind  string
	Names []string
}

// Name returns e's name, or "kind(e)" for a value the table does not
// name.
func (t Table[E]) Name(e E) string {
	if t.named(e) {
		return t.Names[e]
	}
	return fmt.Sprintf("%s(%d)", t.Kind, int(e))
}

// Marshal returns e's name; a value the table does not name is an error
// that lists the accepted names.
func (t Table[E]) Marshal(e E) ([]byte, error) {
	if !t.named(e) {
		return nil, fmt.Errorf("unknown %s %d (want %s)", t.Kind, int(e), t.want())
	}
	return []byte(t.Names[e]), nil
}

// Unmarshal sets *e to the value named text.  "" is the default, value
// 0; an unknown name is an error that lists the accepted ones.
func (t Table[E]) Unmarshal(e *E, text []byte) error {
	s := string(text)
	if s == "" {
		*e = 0
		return nil
	}
	for v, name := range t.Names {
		if name == s {
			*e = E(v)
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q (want %s)", t.Kind, s, t.want())
}

func (t Table[E]) named(e E) bool { return e >= 0 && int(e) < len(t.Names) }

func (t Table[E]) want() string {
	last := len(t.Names) - 1
	return strings.Join(t.Names[:last], ", ") + " or " + t.Names[last]
}

// Valid refuses every value its table does not name: it joins the
// errors of the values' MarshalText.
func Valid(values ...encoding.TextMarshaler) error {
	var errs []error
	for _, v := range values {
		if _, err := v.MarshalText(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Names lists the names of E's values in value order, for help texts.
func Names[E interface {
	~int
	encoding.TextMarshaler
}]() string {
	var names []string
	for e := E(0); ; e++ {
		b, err := e.MarshalText()
		if err != nil {
			return strings.Join(names, ", ")
		}
		names = append(names, string(b))
	}
}
