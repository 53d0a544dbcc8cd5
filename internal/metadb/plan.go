package metadb

import (
	"fmt"
	"sync"
)

// plan is a statement as the plan cache keeps it: the parsed form, how
// many arguments it takes and the name of its latency histogram. Only
// the syntax is kept; tables, columns and indexes are resolved at every
// execution, so no DDL can make a plan stale. A plan is shared by every
// session and never modified.
type plan struct {
	st      Statement
	nparams int
	metric  string
}

func newPlan(st Statement, nparams int) *plan {
	return &plan{st: st, nparams: nparams, metric: QueryMetric(stmtKind(st))}
}

// planCacheSize bounds the plans a database keeps. The catalog issues
// about forty distinct texts; the rest of the room absorbs literal SQL
// from shells and tests without pushing those out.
const planCacheSize = 256

// planCache maps statement text to its plan in two generations: a
// lookup that finds its text only in the old generation moves it to the
// current one, and when the current one holds half the bound it becomes
// the old one and the previous old one is dropped. A text used at least
// once per generation therefore stays, and the two together never hold
// more than planCacheSize plans.
type planCache struct {
	mu       sync.Mutex
	cur, old map[string]*plan
}

// get returns the plan for st.SQL, parsing it on a miss, and checks
// that st.Args fills its placeholders exactly.
func (c *planCache) get(st Stmt) (*plan, error) {
	c.mu.Lock()
	p, ok := c.cur[st.SQL]
	if !ok {
		if p, ok = c.old[st.SQL]; ok {
			c.put(st.SQL, p)
		}
	}
	c.mu.Unlock()
	if !ok {
		parsed, n, err := parse(st.SQL)
		if err != nil {
			return nil, err
		}
		p = newPlan(parsed, n)
		c.mu.Lock()
		c.put(st.SQL, p)
		c.mu.Unlock()
	}
	if len(st.Args) != p.nparams {
		return nil, fmt.Errorf("metadb: statement has %d placeholder(s), got %d argument(s)", p.nparams, len(st.Args))
	}
	return p, nil
}

// put adds a plan to the current generation. Caller holds c.mu.
func (c *planCache) put(sql string, p *plan) {
	if len(c.cur) >= planCacheSize/2 {
		c.old, c.cur = c.cur, nil
	}
	if c.cur == nil {
		c.cur = make(map[string]*plan, planCacheSize/2)
	}
	c.cur[sql] = p
}
