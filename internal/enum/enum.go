// Package enum names the values of the small int enums a sort is
// configured with (run formers, pivot strategies, topologies, disk
// access modes).  Each enum keeps its names in one table indexed by
// value; its String method and its Parse function both read that table,
// so a name is written once.
package enum

import (
	"fmt"
	"strings"
)

// Name returns names[e], or "kind(e)" for a value the table does not
// name.
func Name[E ~int](names []string, kind string, e E) string {
	if e >= 0 && int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("%s(%d)", kind, int(e))
}

// Parse returns the value whose name is s.  "" parses to the default,
// value 0; an unknown name is an error that lists the accepted ones.
func Parse[E ~int](names []string, kind, s string) (E, error) {
	if s == "" {
		return 0, nil
	}
	for e, name := range names {
		if name == s {
			return E(e), nil
		}
	}
	last := len(names) - 1
	return 0, fmt.Errorf("unknown %s %q (want %s or %s)", kind, s, strings.Join(names[:last], ", "), names[last])
}
