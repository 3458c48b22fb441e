package codec

import (
	"sync"
	"sync/atomic"
)

// maxNames bounds the name table. Only the program adds to it (Intern), so
// it holds the protocol's kind constants and the names on the process's
// rosters; the bound keeps a process that keeps registering new members
// (a long churn run) from growing it forever. Past it, Intern is a no-op
// and Reader.Name copies, as it does for any name the table lacks.
const maxNames = 1 << 12

// nameTable is an immutable map swapped whole on add, so a lookup takes
// no lock. A lookup is m[string(b)], which the compiler performs without
// converting b.
type nameTable struct {
	mu    sync.Mutex // serialises add
	tab   atomic.Pointer[map[string]string]
	limit int
}

// names is the process's name table, the one Reader.Name decodes against.
var names = nameTable{limit: maxNames}

// Intern adds ss to the name table that Reader.Name decodes against. Call
// it with names the program itself defines or registers — message kinds,
// members of a roster, signer identities — never with bytes read from the
// wire: the table is bounded by what the program knows, not by what peers
// send. Adding a name the table holds is free.
func Intern(ss ...string) { names.add(ss...) }

// NameOf returns the table's copy of the name b spells, or a fresh copy of
// b when the table lacks it: Reader.Name for a name already cut out of a
// message. The result never aliases b.
func NameOf(b []byte) string { return names.lookup(b) }

func (t *nameTable) add(ss ...string) {
	if t.holdsAll(ss) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := make(map[string]string, len(ss))
	if cur := t.tab.Load(); cur != nil {
		if len(*cur) >= t.limit {
			return
		}
		next = make(map[string]string, len(*cur)+len(ss))
		for k, v := range *cur {
			next[k] = v
		}
	}
	for _, s := range ss {
		if len(next) >= t.limit {
			break
		}
		if s != "" {
			next[s] = s
		}
	}
	t.tab.Store(&next)
}

func (t *nameTable) holdsAll(ss []string) bool {
	cur := t.tab.Load()
	for _, s := range ss {
		if s == "" {
			continue
		}
		if cur == nil {
			return false
		}
		if _, ok := (*cur)[s]; !ok {
			return false
		}
	}
	return true
}

func (t *nameTable) len() int {
	if cur := t.tab.Load(); cur != nil {
		return len(*cur)
	}
	return 0
}

func (t *nameTable) lookup(b []byte) string {
	if cur := t.tab.Load(); cur != nil {
		if s, ok := (*cur)[string(b)]; ok {
			return s
		}
	}
	return string(b)
}
