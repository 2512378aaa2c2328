package main

import (
	"fmt"
	"sort"
	"strconv"

	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

// The SQL side of small-sql and service-http: eight RheemQL templates —
// filter, group/aggregate, having, order/limit, over sensors and words,
// no join — each with a reference evaluator in plain Go over the raw
// rows. A job picks a template round-robin and one of sqlLits literals
// from the seed.

type sensorRow struct {
	well, hour                  int64
	pressure, temperature, flow float64
}

// tables is the raw content of service.DefaultCatalog(scale), which
// exposes no rows: the same generators with the same fixed seeds. If
// the catalog ever changes, verification fails loudly.
type tables struct {
	sensors []sensorRow
	words   []string
}

func loadTables(scale int) *tables {
	t := &tables{}
	for _, r := range datagen.Sensors(datagen.SensorConfig{N: scale, Wells: 32, Seed: 7}) {
		t.sensors = append(t.sensors, sensorRow{
			well: r.Field(0).Int(), hour: r.Field(1).Int(),
			pressure: r.Field(2).Float(), temperature: r.Field(3).Float(), flow: r.Field(4).Float(),
		})
	}
	for _, r := range datagen.Words(scale, 11) {
		t.words = append(t.words, r.Field(0).Str())
	}
	return t
}

// records rebuilds the sensors table as records, for the probes that
// move the workload's own data through channels.
func (t *tables) records() []data.Record {
	out := make([]data.Record, len(t.sensors))
	for i, s := range t.sensors {
		out[i] = data.NewRecord(data.Int(s.well), data.Int(s.hour),
			data.Float(s.pressure), data.Float(s.temperature), data.Float(s.flow))
	}
	return out
}

const sqlLits = 16

var vocab = []string{
	"road", "to", "freedom", "in", "big", "data", "analytics",
	"rheem", "platform", "independence", "operator", "plan",
}

type sqlTemplate struct {
	name   string
	render func(lit int) string
	eval   func(t *tables, lit int) *answer
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', 1, 64) }

var sqlTemplates = []sqlTemplate{
	{
		// The wide one: about half the table comes back (the cut sits
		// between two pressure clusters), trimmed by the hour literal.
		name: "filter",
		render: func(lit int) string {
			return fmt.Sprintf("SELECT well, pressure FROM sensors WHERE pressure > 175.5 AND hour < %d", 48+lit)
		},
		eval: func(t *tables, lit int) *answer {
			var rows []row
			for _, s := range t.sensors {
				if s.pressure > 175.5 && s.hour < int64(48+lit) {
					rows = append(rows, row{s.well, s.pressure})
				}
			}
			return newAnswer(rows, false)
		},
	},
	{
		name: "group",
		render: func(lit int) string {
			return fmt.Sprintf("SELECT well, COUNT(*) AS n, AVG(pressure) AS p FROM sensors WHERE hour < %d GROUP BY well", 32+2*lit)
		},
		eval: func(t *tables, lit int) *answer {
			n, sum := map[int64]int64{}, map[int64]float64{}
			for _, s := range t.sensors {
				if s.hour < int64(32+2*lit) {
					n[s.well]++
					sum[s.well] += s.pressure
				}
			}
			var rows []row
			for well, c := range n {
				rows = append(rows, row{well, c, sum[well] / float64(c)})
			}
			return newAnswer(rows, false)
		},
	},
	{
		name: "having",
		render: func(lit int) string {
			return "SELECT well, AVG(temperature) AS t FROM sensors GROUP BY well HAVING t > " + ftoa(64.5+float64(lit))
		},
		eval: func(t *tables, lit int) *answer {
			n, sum := map[int64]int64{}, map[int64]float64{}
			for _, s := range t.sensors {
				n[s.well]++
				sum[s.well] += s.temperature
			}
			var rows []row
			for well, c := range n {
				if avg := sum[well] / float64(c); avg > 64.5+float64(lit) {
					rows = append(rows, row{well, avg})
				}
			}
			return newAnswer(rows, false)
		},
	},
	{
		name: "topn",
		render: func(lit int) string {
			return fmt.Sprintf("SELECT hour, flow FROM sensors WHERE well = %d ORDER BY flow DESC LIMIT 10", 2*lit)
		},
		eval: func(t *tables, lit int) *answer {
			var rows []row
			for _, s := range t.sensors {
				if s.well == int64(2*lit) {
					rows = append(rows, row{s.hour, s.flow})
				}
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i][1].(float64) > rows[j][1].(float64) })
			return newAnswer(rows[:min(10, len(rows))], true)
		},
	},
	{
		name: "wordcount",
		render: func(lit int) string {
			return fmt.Sprintf("SELECT word, COUNT(*) AS n FROM words GROUP BY word ORDER BY word LIMIT %d", lit%len(vocab)+1)
		},
		eval: func(t *tables, lit int) *answer {
			n := map[string]int64{}
			for _, w := range t.words {
				n[w]++
			}
			var rows []row
			for w, c := range n {
				rows = append(rows, row{w, c})
			}
			sortRows(rows)
			return newAnswer(rows[:min(lit%len(vocab)+1, len(rows))], true)
		},
	},
	{
		name: "global",
		render: func(lit int) string {
			return "SELECT COUNT(*) AS n, MAX(pressure) AS hi, MIN(flow) AS lo FROM sensors WHERE temperature < " + ftoa(65+2*float64(lit))
		},
		eval: func(t *tables, lit int) *answer {
			var n int64
			var hi, lo float64
			for _, s := range t.sensors {
				if s.temperature >= 65+2*float64(lit) {
					continue
				}
				if n == 0 || s.pressure > hi {
					hi = s.pressure
				}
				if n == 0 || s.flow < lo {
					lo = s.flow
				}
				n++
			}
			if n == 0 {
				return newAnswer(nil, true)
			}
			return newAnswer([]row{{n, hi, lo}}, true)
		},
	},
	{
		name: "wordfilter",
		render: func(lit int) string {
			return fmt.Sprintf("SELECT word FROM words WHERE word = '%s'", vocab[lit%len(vocab)])
		},
		eval: func(t *tables, lit int) *answer {
			var rows []row
			for _, w := range t.words {
				if w == vocab[lit%len(vocab)] {
					rows = append(rows, row{w})
				}
			}
			return newAnswer(rows, false)
		},
	},
	{
		name: "grouporder",
		render: func(lit int) string {
			return fmt.Sprintf("SELECT hour, SUM(flow) AS f, COUNT(*) AS n FROM sensors WHERE well < %d GROUP BY hour HAVING n > 1 ORDER BY hour", 8+lit)
		},
		eval: func(t *tables, lit int) *answer {
			n, sum := map[int64]int64{}, map[int64]float64{}
			for _, s := range t.sensors {
				if s.well < int64(8+lit) {
					n[s.hour]++
					sum[s.hour] += s.flow
				}
			}
			var rows []row
			for hour, c := range n {
				if c > 1 {
					rows = append(rows, row{hour, sum[hour], c})
				}
			}
			sortRows(rows)
			return newAnswer(rows, true)
		},
	},
}

// sqlAnswers evaluates every (template, literal) pair once, during
// set-up.
func sqlAnswers(t *tables) [][]*answer {
	out := make([][]*answer, len(sqlTemplates))
	for k, tpl := range sqlTemplates {
		out[k] = make([]*answer, sqlLits)
		for lit := range out[k] {
			out[k][lit] = tpl.eval(t, lit)
		}
	}
	return out
}
