module chiaroscuro/benchmark

go 1.23

require chiaroscuro v0.0.0

replace chiaroscuro => ../
