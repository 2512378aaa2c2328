package rheemql

import (
	"testing"

	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

// benchQueries are the eight query shapes of the repository benchmark's
// small-sql workload (benchmarks/e2e/sqlref.go), one literal each.
var benchQueries = []struct{ name, sql string }{
	{"filter", "SELECT well, pressure FROM sensors WHERE pressure > 175.5 AND hour < 52"},
	{"group", "SELECT well, COUNT(*) AS n, AVG(pressure) AS p FROM sensors WHERE hour < 40 GROUP BY well"},
	{"having", "SELECT well, AVG(temperature) AS t FROM sensors GROUP BY well HAVING t > 68.5"},
	{"topn", "SELECT hour, flow FROM sensors WHERE well = 8 ORDER BY flow DESC LIMIT 10"},
	{"wordcount", "SELECT word, COUNT(*) AS n FROM words GROUP BY word ORDER BY word LIMIT 5"},
	{"global", "SELECT COUNT(*) AS n, MAX(pressure) AS hi, MIN(flow) AS lo FROM sensors WHERE temperature < 73.0"},
	{"wordfilter", "SELECT word FROM words WHERE word = 'big'"},
	{"grouporder", "SELECT hour, SUM(flow) AS f, COUNT(*) AS n FROM sensors WHERE well < 12 GROUP BY hour HAVING n > 1 ORDER BY hour"},
}

// benchCatalog has the tables, and the schemas, of service.DefaultCatalog(500).
func benchCatalog(b *testing.B) *Catalog {
	b.Helper()
	cat := NewCatalog()
	sensors := data.MustSchema(
		data.Field{Name: "well", Type: data.KindInt}, data.Field{Name: "hour", Type: data.KindInt},
		data.Field{Name: "pressure", Type: data.KindFloat}, data.Field{Name: "temperature", Type: data.KindFloat},
		data.Field{Name: "flow", Type: data.KindFloat})
	if err := cat.Register("sensors", sensors, datagen.Sensors(datagen.SensorConfig{N: 500, Wells: 32, Seed: 7})); err != nil {
		b.Fatal(err)
	}
	if err := cat.Register("words", data.MustSchema(data.Field{Name: "word", Type: data.KindString}), datagen.Words(500, 11)); err != nil {
		b.Fatal(err)
	}
	return cat
}

// BenchmarkParse is the rheemql.parse layer of the benchmark's ladder:
// query text to AST.
func BenchmarkParse(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(q.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile is the rheemql.compile layer: AST to a logical plan
// of hinted operators over the catalog.
func BenchmarkCompile(b *testing.B) {
	cat := benchCatalog(b)
	for _, q := range benchQueries {
		ast, err := Parse(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(ast, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
