package meta

import (
	"sync"
	"testing"

	"dpfs/internal/stripe"
)

func TestNextGenerationMonotonic(t *testing.T) {
	c := newCatalog(t)
	var prev int64
	for i := 0; i < 5; i++ {
		gen, err := c.NextGeneration("/f")
		if err != nil {
			t.Fatal(err)
		}
		if gen <= prev {
			t.Fatalf("generation %d after %d: not strictly increasing", gen, prev)
		}
		prev = gen
	}
}

func TestNextGenerationConcurrent(t *testing.T) {
	c := newCatalog(t)
	const n = 16
	gens := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := c.NextGeneration("/f")
			if err != nil {
				t.Error(err)
				return
			}
			gens[i] = g
		}(i)
	}
	wg.Wait()
	seen := make(map[int64]bool, n)
	for _, g := range gens {
		if g == 0 || seen[g] {
			t.Fatalf("generations not unique: %v", gens)
		}
		seen[g] = true
	}
}

// TestGenerationRoundtrip checks the generation survives the catalog:
// stamped at create, read back by lookup, reported by remove and
// rename.
func TestGenerationRoundtrip(t *testing.T) {
	c := newCatalog(t)
	fi := testFileInfo("/f")
	gen, err := c.NextGeneration("/f")
	if err != nil {
		t.Fatal(err)
	}
	fi.Generation = gen
	assign, _ := stripe.RoundRobin{}.Assign(fi.Geometry.NumBricks(), len(fi.Servers))
	if err := createFile(c, fi, assign); err != nil {
		t.Fatal(err)
	}

	got, _, err := lookupFile(c, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != gen {
		t.Fatalf("LookupFile generation = %d, want %d", got.Generation, gen)
	}

	_, rgen, err := c.RenameFile("/f", "/g")
	if err != nil {
		t.Fatal(err)
	}
	if rgen != gen {
		t.Fatalf("RenameFile generation = %d, want %d", rgen, gen)
	}

	removed, err := c.RemoveFile("/g")
	if err != nil {
		t.Fatal(err)
	}
	if removed.Generation != gen {
		t.Fatalf("RemoveFile generation = %d, want %d", removed.Generation, gen)
	}

	// A recreate of the same path gets a strictly newer generation.
	gen2, err := c.NextGeneration("/f")
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen {
		t.Fatalf("recreate generation %d not newer than %d", gen2, gen)
	}
}
