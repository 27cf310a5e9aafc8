package main

import (
	"fmt"
	"math/rand"
	"strings"

	"doppiodb/internal/workload"
)

// Statement kinds a workload issues.
const (
	kindFPGA     = "regexp_fpga"
	kindRegexp   = "regexp_like"
	kindLike     = "like"
	kindILike    = "ilike"
	kindContains = "contains"
	kindQ13      = "q13"
	kindInsert   = "insert"
)

const (
	addrTable = workload.AddressTableName
	addrCol   = "address_string"
)

// hybridQH is the hybrid statement of the scan workloads. The paper's QH
// fits the default 16-state device whole, so its tail is widened to an
// alternation the device cannot hold: the statement splits at the second
// top-level `.*`, Q2 pre-filters on the FPGA and the alternation is
// post-processed on the pre-selected rows.
const hybridQH = workload.Q2 + `.*(delivery|Nord|Sued|Ost|West|Mitte|Zentrum|Altstadt)`

// stmt is one client call: a query or an insert.
type stmt struct {
	kind    string
	pattern string // regex, LIKE pattern or CONTAINS query; empty for Q13 and inserts
	sql     string
	row     string // kindInsert: the address appended to address_table
}

// dataset is a workload's generated input.
type dataset struct {
	addr []string       // address_table's rows at set-up
	tpch *workload.TPCH // customer/orders, or nil
	// index builds the CONTAINS index on address_table during set-up.
	index bool
}

// spec defines a workload: its input, its clients and their statement
// streams. Every stream is a pure function of the seed and client number.
type spec struct {
	name    string
	clients int
	// offload turns on doppiodb.Options.CostBasedOffload.
	offload bool
	data    func(seed int64) *dataset
	stream  func(seed int64, client int) func() stmt
}

var specs = map[string]*spec{
	"offload-scan":  offloadScan,
	"plan-churn":    planChurn,
	"software-scan": softwareScan,
	"two-sessions":  twoSessions,
}

// scanRows is the address table of the offloaded scan workloads: 50,000
// rows of 64 B with Q2/Q3/Q4/QH hits at 5% selectivity in total.
func scanRows(seed int64) *dataset {
	g := workload.NewGenerator(seed, workload.DefaultStrLen)
	return &dataset{addr: g.MixedTable(50_000, 0.05,
		workload.HitQ2, workload.HitQ3, workload.HitQ4, workload.HitQH)}
}

var scanPatterns = []string{workload.Q2, workload.Q3, workload.Q4, hybridQH}

// offloadScan: one client cycling REGEXP_FPGA over Q2, Q3, Q4 and the
// hybrid QH. The PU model, the HUDF and the cost probe do most of the work.
var offloadScan = &spec{
	name:    "offload-scan",
	clients: 1,
	data:    scanRows,
	stream: func(seed int64, client int) func() stmt {
		i := 0
		return func() stmt {
			p := scanPatterns[i%len(scanPatterns)]
			i++
			return fpgaStmt(p)
		}
	},
}

// twoSessions: two clients on one shared DB with cost-based offload,
// each cycling REGEXP_LIKE over the scan patterns from a different
// starting point, so their jobs meet in HAL admission and share
// arbitration rounds.
var twoSessions = &spec{
	name:    "two-sessions",
	clients: 2,
	offload: true,
	data:    scanRows,
	stream: func(seed int64, client int) func() stmt {
		i := 2 * client
		return func() stmt {
			p := scanPatterns[i%len(scanPatterns)]
			i++
			return regexpStmt(p)
		}
	},
}

// planChurn: one client with cost-based offload over a 2,000-row table.
// Statements are drawn with Zipf skew from 300 REGEXP_LIKE and 100 LIKE
// patterns, more than the 128-entry plan cache holds. Every twentieth call
// inserts a row, which bumps the table version and so invalidates every
// cached plan of the table; every other fourth call is a LIKE, the rest
// REGEXP_LIKE. The fixed schedule keeps the mix the same on every seed.
var planChurn = &spec{
	name:    "plan-churn",
	clients: 1,
	offload: true,
	data: func(seed int64) *dataset {
		g := workload.NewGenerator(seed, workload.DefaultStrLen)
		return &dataset{addr: g.MixedTable(2_000, 0.05,
			workload.HitQ1, workload.HitQ2, workload.HitQ3, workload.HitQ4)}
	},
	stream: func(seed int64, client int) func() stmt {
		regexps, likes := patternPools(seed, 300, 100)
		r := rand.New(rand.NewSource(seed*31 + int64(client)))
		zr := rand.NewZipf(r, zipfS, zipfV, uint64(len(regexps)-1))
		zl := rand.NewZipf(r, zipfS, zipfV, uint64(len(likes)-1))
		rows := workload.NewGenerator(seed+1, workload.DefaultStrLen)
		i := 0
		return func() stmt {
			i++
			switch {
			case i%20 == 0:
				kind := workload.HitNone
				if r.Float64() < 0.05 {
					kind = workload.HitQ2
				}
				return stmt{kind: kindInsert, row: rows.Row(kind)}
			case i%4 == 0:
				return likes[zl.Uint64()]
			default:
				return regexps[zr.Uint64()]
			}
		}
	},
}

// Zipf parameters of plan-churn's pattern draws. The offset v flattens the
// head, so on every seed most draws miss the plan cache and the median
// statement is a cache miss rather than the edge between hits and misses.
const zipfS, zipfV = 1.1, 50

// softwareScan: one client, offload off, over a 5,000-row address table
// and a small TPC-H customer/orders pair. Every statement runs on the CPU:
// LIKE, ILIKE, the backtracker on Q2/Q3/Q4, the CONTAINS index and Q13.
var softwareScan = &spec{
	name:    "software-scan",
	clients: 1,
	data: func(seed int64) *dataset {
		g := workload.NewGenerator(seed, workload.DefaultStrLen)
		return &dataset{
			addr: g.MixedTable(5_000, 0.05, workload.HitQ1, workload.HitQ2,
				workload.HitQ3, workload.HitQ4, workload.HitTable1),
			tpch:  workload.GenerateTPCH(seed, 0.002, 0.01),
			index: true,
		}
	},
	stream: func(seed int64, client int) func() stmt {
		// Five cheap statements, Q13 and three backtracker scans: the
		// median statement is then one of the LIKE/ILIKE scans, whose
		// latencies lie close together, rather than the edge between two
		// statement kinds of very different cost.
		cycle := []stmt{
			likeStmt(workload.Q1Like, false),
			likeStmt(workload.Table1Like, false),
			likeStmt(strings.ToLower(workload.Q1Like), true),
			regexpStmt(workload.Q2),
			containsStmt(workload.Table1Contains),
			containsStmt("Strasse"),
			regexpStmt(workload.Q3),
			{kind: kindQ13, sql: q13SQL},
			regexpStmt(workload.Q4),
		}
		i := 0
		return func() stmt {
			s := cycle[i%len(cycle)]
			i++
			return s
		}
	},
}

// q13Exclude is the LIKE pattern of TPC-H Q13's order filter.
const q13Exclude = "%special%requests%"

const q13SQL = `SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_custkey, count(o_orderkey)
  FROM customer
  LEFT OUTER JOIN orders ON c_custkey = o_custkey
    AND o_comment NOT LIKE '` + q13Exclude + `'
  GROUP BY c_custkey
) AS c_orders (c_custkey, c_count)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC`

func fpgaStmt(p string) stmt {
	return stmt{kind: kindFPGA, pattern: p, sql: fmt.Sprintf(
		"SELECT count(*) FROM %s WHERE REGEXP_FPGA('%s', %s) <> 0", addrTable, p, addrCol)}
}

func regexpStmt(p string) stmt {
	return stmt{kind: kindRegexp, pattern: p, sql: fmt.Sprintf(
		"SELECT count(*) FROM %s WHERE REGEXP_LIKE(%s, '%s')", addrTable, addrCol, p)}
}

func likeStmt(p string, fold bool) stmt {
	s := stmt{kind: kindLike, pattern: p}
	op := "LIKE"
	if fold {
		s.kind, op = kindILike, "ILIKE"
	}
	s.sql = fmt.Sprintf("SELECT count(*) FROM %s WHERE %s %s '%s'", addrTable, addrCol, op, p)
	return s
}

func containsStmt(q string) stmt {
	return stmt{kind: kindContains, pattern: q, sql: fmt.Sprintf(
		"SELECT count(*) FROM %s WHERE CONTAINS(%s, '%s')", addrTable, addrCol, q)}
}

// poolWords are alphanumeric words of the generated addresses plus a few
// that never occur, so the pool mixes selective and empty predicates.
var poolWords = []string{
	"Strasse", "Frankfurt", "Muenchen", "Zuerich", "Wien", "Hamburg", "Basel",
	"Koeln", "Dresden", "Leipzig", "Bremen", "Lindenweg", "Hauptallee",
	"Gartenpfad", "Ringweg", "Talgrund", "Ufersteig", "Birkenallee", "John",
	"Anna", "Hans", "Maria", "Peter", "Julia", "Karl", "Nina", "Oskar", "Lena",
	"Smith", "Miller", "Maier", "Weber", "Fischer", "Wagner", "Becker", "Koch",
	"Richter", "USD", "EUR", "GBP", "delivery", "Turing", "Nord", "Altstadt",
}

// patternPools draws distinct REGEXP_LIKE and LIKE statements from
// templates over poolWords. The template and repeat count of the i-th
// statement of each pool are fixed and only the words depend on the seed,
// so the statements the Zipf draw favours have the same shapes on every
// seed. Every regex fits the default device or splits into a hybrid plan,
// and means the same to Go's regexp package.
func patternPools(seed int64, nRegexp, nLike int) (regexps, likes []stmt) {
	r := rand.New(rand.NewSource(seed*7 + 3))
	word := func() string { return poolWords[r.Intn(len(poolWords))] }
	seen := make(map[string]bool)
	draw := func(n int, make func(i int) stmt) []stmt {
		var pool []stmt
		for len(pool) < n {
			s := make(len(pool))
			if !seen[s.sql] {
				seen[s.sql] = true
				pool = append(pool, s)
			}
		}
		return pool
	}
	regexps = draw(nRegexp, func(i int) stmt {
		k := 1 + i/5%4
		switch i % 5 {
		case 0:
			return regexpStmt(fmt.Sprintf("%s.*[0-9]{%d}", word(), k))
		case 1:
			return regexpStmt(fmt.Sprintf("(%s|%s)[a-z]*", word(), word()))
		case 2:
			return regexpStmt(fmt.Sprintf("%s.*%s", word(), word()))
		case 3:
			return regexpStmt(fmt.Sprintf("[0-9]{%d}(%s|%s)", k, word(), word()))
		default:
			return regexpStmt(fmt.Sprintf("[A-Z][a-z]{%d}%s", k, strings.ToLower(word())))
		}
	})
	likes = draw(nLike, func(i int) stmt {
		switch i % 4 {
		case 0:
			return likeStmt("%"+word()+"%"+word()+"%", false)
		case 1:
			return likeStmt(word()+"%"+word()+"%", false)
		case 2:
			return likeStmt(fmt.Sprintf("%%%s%%%d%%", word(), r.Intn(10)), false)
		default:
			return likeStmt("%"+word()+"_%"+word()+"%", false)
		}
	})
	return regexps, likes
}
