// Command app is the fixture's caller: it uses the root package's live API.
package main

import (
	"flag"
	"fmt"

	"unused"
)

func main() {
	r := unused.Used(unused.Config{Size: 1, Retries: 2})
	b, _ := unused.Encode()
	fmt.Println(r.N, string(b), unused.Trim(" x "), unused.Flags(flag.CommandLine))
}
