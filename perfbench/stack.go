package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"doppiodb"
	"doppiodb/internal/core"
	"doppiodb/internal/fpga"
	"doppiodb/internal/mdb"
	"doppiodb/internal/sql"
)

// answer is what a client sees of one statement.
type answer struct {
	rows      [][]any
	offloaded bool
	// res is the engine's full result; only the traced stack has it.
	res *sql.Result
}

// client issues one workload client's statements. A client is used by one
// goroutine at a time.
type client interface {
	query(ctx context.Context, sql string) (*answer, error)
	insert(id int, row string) error
}

// stack is a database under test with its clients.
type stack interface {
	client(i int) client
	close()
}

// loader is the set-up surface both stacks share.
type loader interface {
	loadAddresses(rows []string) error
	createTPCH(d *dataset) error
	buildIndex() error
}

// load fills a fresh database with the workload's tables and indexes.
func load(l loader, d *dataset) error {
	if err := l.loadAddresses(d.addr); err != nil {
		return fmt.Errorf("load %s: %w", addrTable, err)
	}
	if d.tpch != nil {
		if err := l.createTPCH(d); err != nil {
			return fmt.Errorf("load tpch: %w", err)
		}
	}
	if d.index {
		if err := l.buildIndex(); err != nil {
			return fmt.Errorf("build contains index: %w", err)
		}
	}
	return nil
}

// A run sets the database up at least minSetups times, and more until the
// set-ups took setupBudget in total or maxSetups were made; setup_s is the
// median.
const (
	minSetups   = 7
	maxSetups   = 51
	setupBudget = 0.5 // seconds
)

// setUp builds the stack repeatedly and returns the last build with the
// median set-up time. Each build is timed from Open to the last index
// build. Before it, the previous build is closed and the free heap is
// returned to the operating system, so every build starts from the same
// cold memory a fresh process has; that collection is not timed.
func setUp(build func() (stack, error)) (stack, float64, error) {
	var times []float64
	var st stack
	total := 0.0
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		if st != nil {
			st.close()
			st = nil
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
		st = s
	}
	sort.Float64s(times)
	return st, times[len(times)/2], nil
}

// publicStack drives the database through the public doppiodb API only.
type publicStack struct {
	db       *doppiodb.DB
	sessions []*doppiodb.Session
}

func newPublicStack(w *spec, d *dataset) (stack, error) {
	db, err := doppiodb.Open(doppiodb.Options{CostBasedOffload: w.offload})
	if err != nil {
		return nil, err
	}
	s := &publicStack{db: db}
	if err := load(s, d); err != nil {
		db.Close()
		return nil, err
	}
	for i := 0; i < w.clients; i++ {
		s.sessions = append(s.sessions, db.NewSession())
	}
	return s, nil
}

func (s *publicStack) loadAddresses(rows []string) error {
	return s.db.LoadStringTable(addrTable, rows)
}

func (s *publicStack) createTPCH(d *dataset) error {
	if err := s.db.CreateTable("customer", doppiodb.Column{Name: "c_custkey", Type: doppiodb.Int}); err != nil {
		return err
	}
	for _, c := range d.tpch.Customers {
		if err := s.db.Insert("customer", c.CustKey); err != nil {
			return err
		}
	}
	if err := s.db.CreateTable("orders",
		doppiodb.Column{Name: "o_orderkey", Type: doppiodb.Int},
		doppiodb.Column{Name: "o_custkey", Type: doppiodb.Int},
		doppiodb.Column{Name: "o_comment", Type: doppiodb.String}); err != nil {
		return err
	}
	for _, o := range d.tpch.Orders {
		if err := s.db.Insert("orders", o.OrderKey, o.CustKey, o.Comment); err != nil {
			return err
		}
	}
	return nil
}

// buildIndex builds the CONTAINS index the only way the public API can: by
// running a CONTAINS query, which builds it on first use.
func (s *publicStack) buildIndex() error {
	_, err := s.db.Query(containsStmt("index").sql)
	return err
}

func (s *publicStack) client(i int) client { return &publicClient{db: s.db, sess: s.sessions[i]} }
func (s *publicStack) close()              { s.db.Close() }

type publicClient struct {
	db   *doppiodb.DB
	sess *doppiodb.Session
}

func (c *publicClient) query(ctx context.Context, q string) (*answer, error) {
	res, err := c.sess.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return &answer{rows: res.Rows, offloaded: res.Offloaded}, nil
}

func (c *publicClient) insert(id int, row string) error {
	return c.db.Insert(addrTable, id, row)
}

// tracedStack assembles the same system doppiodb.Open does from the
// internal packages, so the traced run can put timing taps on the seams the
// program exposes: the SQL engine's placement advisor and the REGEXP_FPGA
// UDF registration.
type tracedStack struct {
	sys     *core.System
	engines []*sql.Engine
}

func newTracedStack(w *spec, d *dataset, tracers []*tracer) (*tracedStack, error) {
	dep := fpga.DefaultDeployment()
	sys, err := core.NewSystem(core.Options{Deployment: &dep})
	if err != nil {
		return nil, err
	}
	s := &tracedStack{sys: sys}
	if err := load(s, d); err != nil {
		sys.Close()
		return nil, err
	}
	registerUDFTap(sys)
	for i := 0; i < w.clients; i++ {
		e := sql.NewEngine(sys.DB)
		if w.offload {
			e.Advisor = &advisorTap{sys: sys, tr: tracers[i]}
		}
		s.engines = append(s.engines, e)
	}
	return s, nil
}

func (s *tracedStack) loadAddresses(rows []string) error {
	_, err := s.sys.DB.LoadAddressTable(addrTable, rows)
	return err
}

func (s *tracedStack) createTPCH(d *dataset) error { return createTPCH(s.sys.DB, d) }

// createTPCH creates and fills the customer and orders tables.
func createTPCH(db *mdb.DB, d *dataset) error {
	cust, err := db.CreateTable("customer", mdb.ColSpec{Name: "c_custkey", Kind: mdb.KindInt})
	if err != nil {
		return err
	}
	for _, c := range d.tpch.Customers {
		if err := cust.AppendRow(c.CustKey); err != nil {
			return err
		}
	}
	ord, err := db.CreateTable("orders",
		mdb.ColSpec{Name: "o_orderkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_custkey", Kind: mdb.KindInt},
		mdb.ColSpec{Name: "o_comment", Kind: mdb.KindString})
	if err != nil {
		return err
	}
	for _, o := range d.tpch.Orders {
		if err := ord.AppendRow(o.OrderKey, o.CustKey, o.Comment); err != nil {
			return err
		}
	}
	return nil
}

func (s *tracedStack) buildIndex() error {
	tbl, err := s.sys.DB.Table(addrTable)
	if err != nil {
		return err
	}
	_, _, err = s.sys.DB.EnsureContainsIndex(tbl, addrCol)
	return err
}

func (s *tracedStack) client(i int) client { return &tracedClient{s: s, e: s.engines[i]} }
func (s *tracedStack) close()              { s.sys.Close() }

type tracedClient struct {
	s *tracedStack
	e *sql.Engine
}

func (c *tracedClient) query(ctx context.Context, q string) (*answer, error) {
	res, err := c.e.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return &answer{rows: res.Rows, offloaded: res.UDF != nil, res: res}, nil
}

func (c *tracedClient) insert(id int, row string) error {
	tbl, err := c.s.sys.DB.Table(addrTable)
	if err != nil {
		return err
	}
	return tbl.AppendRow(id, row)
}
