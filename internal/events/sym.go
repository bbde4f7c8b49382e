package events

import (
	"maps"
	"strings"
	"sync"
	"sync/atomic"
)

// Names and symbols (DESIGN.md "Names and symbols").
//
// Sites, campaigns and products are held as 4-byte symbols into one
// process-wide, append-only name table, so an Event carries no pointers and
// the collector never follows one per held event. The table lives as long
// as the process and only grows: its size is bounded by the distinct names
// of accepted traffic, just as the fleet is bounded by its distinct
// devices. Decoders therefore validate a whole record before interning any
// of its names.
//
// Symbol numbers never leave the process. Every codec, trace file, API
// body, result and digest writes names, and numbers depend on interning
// order, so nothing orders by them either: Sym is comparable but not
// ordered, and name order is Compare.

// Sym is an interned name. The zero Sym is the empty name.
type Sym struct{ n uint32 }

// Site is a web origin: a publisher (nytimes.com), an advertiser (nike.com)
// or an ad-tech acting as the querier.
type Site = Sym

// symTable is the name table. names is republished on every append, so
// String reads it without the lock; a reader holding an older slice never
// indexes past its length, because a Sym reaches a reader only after the
// append that created it was published. read is a published copy of
// byName, so a name already in it interns without the lock: the report
// path interns its querier on every report, from every fan-out worker.
type symTable struct {
	mu     sync.Mutex
	byName map[string]Sym // every name; guarded by mu
	misses int            // lookups that missed read since it was copied; guarded by mu
	read   atomic.Pointer[map[string]Sym]
	names  atomic.Pointer[[]string]
}

// symtab is initialized by its declaration, not by an init function, so
// package-level variables may intern names.
var symtab = newSymTable()

func newSymTable() *symTable {
	t := &symTable{byName: map[string]Sym{"": {}}}
	t.read.Store(&map[string]Sym{"": {}})
	names := []string{""}
	t.names.Store(&names)
	return t
}

// Intern returns name's symbol, adding name to the table on first use.
func Intern(name string) Sym {
	if s, ok := (*symtab.read.Load())[name]; ok {
		return s
	}
	return symtab.intern(name)
}

// internBytes is Intern for a name held in a decoder's buffer: a known name
// costs no allocation.
func internBytes(b []byte) Sym {
	if s, ok := (*symtab.read.Load())[string(b)]; ok {
		return s
	}
	return symtab.intern(string(b))
}

// intern is Intern's locked path. It copies byName to read once the misses
// since the last copy reach the table's size, so a copy costs O(1) per miss
// amortized and a name in steady use soon interns without the lock.
func (t *symTable) intern(name string) Sym {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byName[name]
	if !ok {
		s = t.add(strings.Clone(name))
	}
	if t.misses++; t.misses >= len(t.byName) {
		read := maps.Clone(t.byName)
		t.read.Store(&read)
		t.misses = 0
	}
	return s
}

// add appends name under symtab.mu and publishes the longer table.
func (t *symTable) add(name string) Sym {
	names := *t.names.Load()
	s := Sym{uint32(len(names))}
	if s.n == 0 {
		panic("events: symbol table overflow")
	}
	names = append(names, name)
	t.names.Store(&names)
	t.byName[name] = s
	return s
}

// String returns the symbol's name.
func (s Sym) String() string { return (*symtab.names.Load())[s.n] }

// Compare orders symbols by name, the only order outputs may depend on.
func (s Sym) Compare(o Sym) int {
	if s == o {
		return 0
	}
	return strings.Compare(s.String(), o.String())
}

// MarshalText implements encoding.TextMarshaler: a symbol encodes as its
// name.
func (s Sym) MarshalText() ([]byte, error) { return []byte(s.String()), nil }
