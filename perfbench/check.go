package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"doppiodb/internal/mdb"
	"doppiodb/internal/perf"
	"doppiodb/internal/sim"
	"doppiodb/internal/sql"
	"doppiodb/internal/telemetry"
)

// checker verifies statements against oracles written without the
// program's matchers, and prices software statements in simulated time.
// Records are fed in issue order, so the address rows it holds are the
// table's rows at each statement.
type checker struct {
	rows    []string
	counts  map[string]*prefixCount
	regexps map[string]*regexp.Regexp
	q13     [][2]int64
	// model is a software-only copy of the database. A software
	// statement's simulated time is the calibrated scan model applied to
	// the work the statement performs, in the sequential_pipe mode the
	// system runs every query in. The public API does not report that
	// work, so the copy runs the statement once more, after the window,
	// and reports it.
	model    *sql.Engine
	modelTbl *mdb.Table
	perfM    perf.Model
	prices   map[string]int64
}

// prefixCount is an oracle count over a prefix of the address rows;
// inserts only append, so a later statement extends it.
type prefixCount struct {
	upto  int
	count int64
}

func newChecker(d *dataset) (*checker, error) {
	c := &checker{
		rows:    append([]string(nil), d.addr...),
		counts:  make(map[string]*prefixCount),
		regexps: make(map[string]*regexp.Regexp),
		perfM:   perf.Default(),
		prices:  make(map[string]int64),
	}
	db := mdb.New(nil)
	db.Tel = telemetry.NewRegistry()
	db.Mode = mdb.SequentialPipe
	tbl, err := db.LoadAddressTable(addrTable, d.addr)
	if err != nil {
		return nil, err
	}
	c.modelTbl = tbl
	if d.tpch != nil {
		exclude := func(comment string) bool { return likeMatch(q13Exclude, comment, false) }
		for cnt, dist := range d.tpch.Q13Reference(exclude) {
			c.q13 = append(c.q13, [2]int64{int64(cnt), int64(dist)})
		}
		sort.Slice(c.q13, func(i, j int) bool {
			if c.q13[i][1] != c.q13[j][1] {
				return c.q13[i][1] > c.q13[j][1]
			}
			return c.q13[i][0] > c.q13[j][0]
		})
		if err := createTPCH(db, d); err != nil {
			return nil, err
		}
	}
	c.model = sql.NewEngine(db)
	return c, nil
}

// verdict is the outcome of checking one record.
type verdict struct {
	ok bool
	// why explains a failure.
	why string
	// matches is the statement's result size for the fingerprint: the
	// count of a count query, the surviving orders of Q13.
	matches int64
	// simNS is the statement's simulated response time when it ran in
	// software (offloaded statements are priced by the program itself).
	simNS int64
}

// check verifies one record; records must arrive in issue order.
func (c *checker) check(r *record) verdict {
	if r.st.kind == kindInsert {
		if r.err != nil {
			return verdict{why: "insert: " + r.err.Error()}
		}
		c.rows = append(c.rows, r.st.row)
		if err := c.modelTbl.AppendRow(len(c.rows)-1, r.st.row); err != nil {
			return verdict{why: "model insert: " + err.Error()}
		}
		return verdict{ok: true}
	}
	if r.err != nil {
		return verdict{why: r.err.Error()}
	}
	v := verdict{ok: true}
	if r.st.kind == kindQ13 {
		v = c.checkQ13(r.ans.rows)
	} else {
		want, err := c.count(r.st)
		if err != nil {
			return verdict{why: err.Error()}
		}
		got, ok := scalar(r.ans.rows)
		if !ok || got != want {
			return verdict{why: fmt.Sprintf("got %v, oracle counts %d", r.ans.rows, want)}
		}
		v.matches = got
	}
	if v.ok && !r.ans.offloaded {
		p, err := c.price(r)
		if err != nil {
			return verdict{why: "pricing: " + err.Error()}
		}
		v.simNS = p
	}
	return v
}

// price returns the simulated time of a software statement.
func (c *checker) price(r *record) (int64, error) {
	if r.ans.res != nil {
		return scanNS(c.perfM, r.ans.res.Work), nil
	}
	key := fmt.Sprintf("%d|%s", len(c.rows), r.st.sql)
	if p, ok := c.prices[key]; ok {
		return p, nil
	}
	res, err := c.model.Query(r.st.sql)
	if err != nil {
		return 0, err
	}
	p := scanNS(c.perfM, res.Work)
	c.prices[key] = p
	return p, nil
}

func scanNS(m perf.Model, w perf.Work) int64 {
	return int64(m.MonetDBScan(w, false) / sim.Nanosecond)
}

func scalar(rows [][]any) (int64, bool) {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, false
	}
	v, ok := rows[0][0].(int64)
	return v, ok
}

func (c *checker) checkQ13(rows [][]any) verdict {
	if len(rows) != len(c.q13) {
		return verdict{why: fmt.Sprintf("q13: %d groups, oracle has %d", len(rows), len(c.q13))}
	}
	var orders int64
	for i, row := range rows {
		if len(row) != 2 {
			return verdict{why: fmt.Sprintf("q13: row %d has %d columns", i, len(row))}
		}
		cnt, ok1 := row[0].(int64)
		dist, ok2 := row[1].(int64)
		if !ok1 || !ok2 || cnt != c.q13[i][0] || dist != c.q13[i][1] {
			return verdict{why: fmt.Sprintf("q13: row %d is %v, oracle has %v", i, row, c.q13[i])}
		}
		orders += cnt * dist
	}
	return verdict{ok: true, matches: orders}
}

// count is the oracle's answer to a count query over the current rows.
func (c *checker) count(s stmt) (int64, error) {
	pc := c.counts[s.kind+"|"+s.pattern]
	if pc == nil {
		pc = &prefixCount{}
		c.counts[s.kind+"|"+s.pattern] = pc
	}
	var match func(string) bool
	switch s.kind {
	case kindFPGA, kindRegexp:
		re := c.regexps[s.pattern]
		if re == nil {
			var err error
			if re, err = regexp.Compile(s.pattern); err != nil {
				return 0, fmt.Errorf("oracle: %w", err)
			}
			c.regexps[s.pattern] = re
		}
		match = re.MatchString
	case kindLike, kindILike:
		match = func(row string) bool { return likeMatch(s.pattern, row, s.kind == kindILike) }
	case kindContains:
		match = func(row string) bool { return containsAll(s.pattern, row) }
	default:
		return 0, fmt.Errorf("oracle: no count for %s", s.kind)
	}
	for ; pc.upto < len(c.rows); pc.upto++ {
		if match(c.rows[pc.upto]) {
			pc.count++
		}
	}
	return pc.count, nil
}

// likeMatch evaluates SQL LIKE: '%' matches any run of bytes, '_' any one
// byte; fold compares case-insensitively (ILIKE).
func likeMatch(pattern, s string, fold bool) bool {
	if fold {
		pattern, s = strings.ToLower(pattern), strings.ToLower(s)
	}
	// reach[j]: the pattern prefix consumed so far matches s[:j].
	reach := make([]bool, len(s)+1)
	reach[0] = true
	for i := 0; i < len(pattern); i++ {
		next := make([]bool, len(s)+1)
		switch pattern[i] {
		case '%':
			on := false
			for j := range reach {
				on = on || reach[j]
				next[j] = on
			}
		case '_':
			for j := 0; j < len(s); j++ {
				next[j+1] = reach[j]
			}
		default:
			for j := 0; j < len(s); j++ {
				next[j+1] = reach[j] && s[j] == pattern[i]
			}
		}
		reach = next
	}
	return reach[len(s)]
}

// containsAll reports whether every '&'-separated word of q is a word of
// s, ignoring case. Words are maximal runs of ASCII letters and digits.
func containsAll(q, s string) bool {
	words := make(map[string]bool)
	for _, w := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	}) {
		words[w] = true
	}
	for _, w := range strings.Split(q, "&") {
		if w = strings.ToLower(strings.TrimSpace(w)); w != "" && !words[w] {
			return false
		}
	}
	return true
}
