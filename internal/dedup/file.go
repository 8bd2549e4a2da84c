package dedup

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Labeled datasets serialize as TSV with a leading cluster_id column: the
// header names it plus the attributes, every following line is one record.
// An optional "#name:" comment on the first line carries the dataset name.

// Write serializes the dataset.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#name:%s\n", d.Name)
	if len(d.NameAttrs) > 0 {
		parts := make([]string, len(d.NameAttrs))
		for i, n := range d.NameAttrs {
			parts[i] = strconv.Itoa(n)
		}
		fmt.Fprintf(bw, "#nameattrs:%s\n", strings.Join(parts, ","))
	}
	fmt.Fprintf(bw, "cluster_id\t%s\n", strings.Join(d.Attrs, "\t"))
	for i, r := range d.Records {
		for _, v := range r {
			if strings.ContainsAny(v, "\t\n\r") {
				return fmt.Errorf("dedup: record %d contains a tab or newline", i)
			}
		}
		fmt.Fprintf(bw, "%d\t%s\n", d.ClusterOf[i], strings.Join(r, "\t"))
	}
	return bw.Flush()
}

// readFrom parses a dataset serialized by Write.
func readFrom(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	d := &Dataset{}
	var header []string
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.HasPrefix(text, "#name:") {
			d.Name = strings.TrimPrefix(text, "#name:")
			continue
		}
		if strings.HasPrefix(text, "#nameattrs:") {
			for _, p := range strings.Split(strings.TrimPrefix(text, "#nameattrs:"), ",") {
				n, err := strconv.Atoi(p)
				if err != nil {
					return nil, fmt.Errorf("dedup: line %d: bad name attr %q", line, p)
				}
				d.NameAttrs = append(d.NameAttrs, n)
			}
			continue
		}
		fields := strings.Split(text, "\t")
		if header == nil {
			if len(fields) < 2 || fields[0] != "cluster_id" {
				return nil, fmt.Errorf("dedup: line %d: bad header", line)
			}
			header = fields
			d.Attrs = fields[1:]
			continue
		}
		if len(fields) != len(header) {
			return nil, fmt.Errorf("dedup: line %d: %d columns, want %d", line, len(fields), len(header))
		}
		c, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("dedup: line %d: bad cluster id %q", line, fields[0])
		}
		d.ClusterOf = append(d.ClusterOf, c)
		d.Records = append(d.Records, fields[1:])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if header == nil {
		return nil, fmt.Errorf("dedup: empty dataset file")
	}
	return d, d.Validate()
}

// WriteFile serializes the dataset to a file.
func (d *Dataset) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile parses a dataset file.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readFrom(f)
}
