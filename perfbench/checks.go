package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
)

// finalChecks verifies the end state of a workload with writes and a
// site: no row is left checked out, and after a final sync the replica
// equals the primary over the subscribed closure.
func finalChecks(f *fixture) []string {
	var problems []string
	primary := f.cl.Primary().DB
	for _, table := range []string{"assy", "comp"} {
		rows, err := selectAll(primary, table)
		if err != nil {
			return append(problems, err.Error())
		}
		col := rows.col("checkedout")
		for _, r := range rows.rows {
			if types.Truth(r[col]) == types.True {
				problems = append(problems, fmt.Sprintf("%s %s is still checked out", table, r[rows.col("obid")].String()))
			}
		}
	}
	if _, err := f.cl.SyncSite(context.Background(), siteName); err != nil {
		return append(problems, fmt.Sprintf("final sync: %v", err))
	}
	site, _ := f.cl.Site(siteName)
	return append(problems, compareClosure(primary, site.DB(), subscribedClosure(f))...)
}

// subscribedClosure is every object under the subscribed roots, from
// the ground truth (hidden subtrees included: replication does not
// apply the user's rules); nil when the workload has no site.
func subscribedClosure(f *fixture) map[int64]bool {
	if f.subRoot == nil {
		return nil
	}
	in := map[int64]bool{}
	stack := append([]int64(nil), f.subRoot...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in[id] = true
		stack = append(stack, f.prod.Nodes[id].Children...)
	}
	return in
}

// compareClosure compares the structure tables of two databases over
// the closure: objects by obid, link and specified_by rows by their
// parent (left), and the specs the closure's components reference.
func compareClosure(primary, replica *minisql.DB, closure map[int64]bool) []string {
	var problems []string
	specs := map[int64]bool{}
	for _, t := range []struct{ table, key string }{
		{"assy", "obid"}, {"comp", "obid"}, {"link", "left"}, {"specified_by", "left"}, {"spec", "obid"},
	} {
		keep := closure
		if t.table == "spec" {
			keep = specs
		}
		want, err := closureRows(primary, t.table, t.key, keep)
		if err != nil {
			return append(problems, err.Error())
		}
		got, err := closureRows(replica, t.table, t.key, keep)
		if err != nil {
			return append(problems, err.Error())
		}
		if len(want) == 0 && t.table != "spec" {
			problems = append(problems, fmt.Sprintf("%s: the subscribed closure holds no rows", t.table))
		}
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			problems = append(problems, fmt.Sprintf("%s: replica has %d rows of the subscribed closure, primary %d, or their values differ",
				t.table, len(got), len(want)))
		}
		if t.table == "specified_by" {
			rows, err := selectAll(primary, t.table)
			if err != nil {
				return append(problems, err.Error())
			}
			for _, r := range rows.rows {
				if closure[r[rows.col("left")].Int()] {
					specs[r[rows.col("right")].Int()] = true
				}
			}
		}
	}
	return problems
}

// closureRows renders the rows of table whose key column is in keep,
// sorted.
func closureRows(db *minisql.DB, table, key string, keep map[int64]bool) ([]string, error) {
	rows, err := selectAll(db, table)
	if err != nil {
		return nil, err
	}
	col := rows.col(key)
	var out []string
	for _, r := range rows.rows {
		if !keep[r[col].Int()] {
			continue
		}
		vals := make([]string, len(r))
		for i, v := range r {
			vals[i] = v.SQLLiteral()
		}
		out = append(out, strings.Join(vals, ","))
	}
	sort.Strings(out)
	return out, nil
}

type table struct {
	cols []string
	rows []minisql.Row
}

func (t table) col(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	panic("perfbench: no column " + name)
}

func selectAll(db *minisql.DB, name string) (table, error) {
	res, err := db.NewSession().Exec("SELECT * FROM " + name)
	if err != nil {
		return table{}, fmt.Errorf("reading %s: %w", name, err)
	}
	return table{cols: res.Cols, rows: res.Rows}, nil
}
