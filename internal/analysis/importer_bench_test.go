package analysis

import (
	"path/filepath"
	"testing"
)

// BenchmarkImporter measures what the process-wide shared import cache
// saves: checking a package whose imports reach into the module
// (testdata/src/obsdrop imports tracescale/internal/obs) with a fresh
// importer per Checker re-typechecks the dependency chain from source
// every time, while the shared cache pays it once for the process. The
// shared case is what every NewChecker caller — Run and the golden-test
// harness alike — gets.
func BenchmarkImporter(b *testing.B) {
	dir := filepath.Join("testdata", "src", "obsdrop")
	b.Run("isolated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := newIsolatedChecker()
			if _, err := c.CheckDir(dir, "obsdrop"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewChecker()
			if _, err := c.CheckDir(dir, "obsdrop"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
