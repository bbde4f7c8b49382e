package events

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestInternConcurrent interns overlapping names from several goroutines,
// each many times, and requires one symbol per name, names that read back,
// and every name in steady use reaching the lock-free read map.
func TestInternConcurrent(t *testing.T) {
	const workers, names, rounds = 8, 64, 200
	name := func(i int) string { return fmt.Sprintf("intern-concurrent-%d.example", i) }
	got := make([][]Sym, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]Sym, names)
			for r := range rounds {
				for i := range names {
					j := (i + w + r) % names
					s := Intern(name(j))
					if r > 0 && s != got[w][j] {
						t.Errorf("worker %d: %s interned as %d, then %d", w, name(j), got[w][j].n, s.n)
					}
					got[w][j] = s
					if b := internBytes([]byte(name(j))); b != s {
						t.Errorf("worker %d: internBytes(%s) = %d, Intern = %d", w, name(j), b.n, s.n)
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := range names {
		s := got[0][i]
		if s.String() != name(i) {
			t.Fatalf("symbol %d reads back %q, want %q", s.n, s.String(), name(i))
		}
		for w := 1; w < workers; w++ {
			if got[w][i] != s {
				t.Fatalf("%s: worker %d has symbol %d, worker 0 has %d", name(i), w, got[w][i].n, s.n)
			}
		}
		if r, ok := (*symtab.read.Load())[name(i)]; !ok || r != s {
			t.Fatalf("%s in steady use is not in the lock-free read map", name(i))
		}
	}
}

// BenchmarkInternKnown is the report path's querier lookup: a name already
// in the table, interned from every worker at once.
func BenchmarkInternKnown(b *testing.B) {
	name := "bench-known.example"
	for range 2 * SymCount() {
		Intern(name)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Intern(name)
		}
	})
}

// TestSymMarshalsAsName holds symbol numbers inside the process: JSON
// writes a symbol field and a symbol-keyed map with the names, never as {}
// or the number.
func TestSymMarshalsAsName(t *testing.T) {
	v := struct {
		Site   Sym
		Counts map[Sym]int
	}{Intern("marshal.example"), map[Sym]int{Intern("key.example"): 3}}
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Site":"marshal.example","Counts":{"key.example":3}}`; string(got) != want {
		t.Fatalf("json.Marshal = %s, want %s", got, want)
	}
}
