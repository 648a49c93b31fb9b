// Cube server: build a cube, serve it over TCP with the library's line
// protocol, and query it through the client — all in one process, so the
// example is self-contained (`cubeshard -shape ... -in facts.csv` serves a
// cube from a fact CSV standalone).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"parcube"
	"parcube/internal/server"
)

func main() {
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "item", Size: 40},
		parcube.Dim{Name: "branch", Size: 10},
		parcube.Dim{Name: "week", Size: 12},
	)
	if err != nil {
		log.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8000; i++ {
		if err := ds.Add(float64(rng.Intn(15)+1), rng.Intn(40), rng.Intn(10), rng.Intn(12)); err != nil {
			log.Fatal(err)
		}
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		log.Fatal(err)
	}

	srv := server.New(cube)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("cube server listening on %s\n", addr)

	client, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	dims, err := client.Schema()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schema: %v\n", dims)

	total, err := client.Total()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grand total: %g\n", total)

	top, err := client.Top(3, "branch")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top branches:")
	for _, row := range top {
		fmt.Printf("  branch %d: %g\n", row.Coords[0], row.Value)
	}

	v, err := client.Value([]string{"item", "week"}, []int{7, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("item 7 in week 3: %g\n", v)

	rows, err := client.GroupBy("week")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weekly series has %d points; first = %g\n", len(rows), rows[0].Value)
}
