(** Bezier Tessellation (CUDA samples' cdpBezierTessellation; Table I).

    One parent thread per line computes the curvature of its quadratic
    Bezier curve, derives the tessellation point count, allocates the output
    vertex buffer with device-side [malloc] (the "aggregated cudaMalloc"
    the paper mentions in Section VII), and tessellates — with a child grid
    of one thread per point in the CDP version. A quantized coordinate
    checksum (order-independent integer atomics) fingerprints the output. *)

let child_block = 128

let tess_body =
  {|
      float u = (float)i / (float)(n - 1);
      float v = 1.0 - u;
      float b0 = v * v;
      float b1 = 2.0 * v * u;
      float b2 = u * u;
      float x = b0 * x0 + b1 * x1 + b2 * x2;
      float y = b0 * y0 + b1 * y1 + b2 * y2;
      out[2 * i] = x;
      out[2 * i + 1] = y;
      atomicAdd(&checksum[0], (int)(x * 64.0) + (int)(y * 64.0));
|}

let parent_prologue =
  {|
    float x0 = cpx[3 * l];
    float y0 = cpy[3 * l];
    float x1 = cpx[3 * l + 1];
    float y1 = cpy[3 * l + 1];
    float x2 = cpx[3 * l + 2];
    float y2 = cpy[3 * l + 2];
    float dx = x2 - x0;
    float dy = y2 - y0;
    float len = sqrt(dx * dx + dy * dy);
    if (len < 0.000000001) {
      len = 0.000000001;
    }
    float curv = fabs((x1 - x0) * dy - (y1 - y0) * dx) / len;
    int n = max(2, min(max_tess, (int)(curv * cscale)));
    npoints[l] = n;
    float* out = (float*)malloc(2 * n);
|}

let cdp_src =
  Fmt.str
    {|
__global__ void bt_child(float* out, int* checksum, float x0, float y0, float x1, float y1, float x2, float y2, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
%s
  }
}

__global__ void bt_parent(float* cpx, float* cpy, int* npoints, int* checksum, int n_lines, int max_tess, float cscale) {
  int l = blockIdx.x * blockDim.x + threadIdx.x;
  if (l < n_lines) {
%s
    bt_child<<<(n + %d) / %d, %d>>>(out, checksum, x0, y0, x1, y1, x2, y2, n);
  }
}
|}
    tess_body parent_prologue (child_block - 1) child_block child_block

let no_cdp_src =
  Fmt.str
    {|
__global__ void bt_parent(float* cpx, float* cpy, int* npoints, int* checksum, int n_lines, int max_tess, float cscale) {
  int l = blockIdx.x * blockDim.x + threadIdx.x;
  if (l < n_lines) {
%s
    for (int i = 0; i < n; i = i + 1) {
%s
    }
  }
}
|}
    parent_prologue tess_body

(* Reference computation mirroring the kernel's operation order exactly, so
   floats (and their truncations) are bit-identical. *)
let reference (d : Workloads.Bezier.t) () =
  let checksum = ref 0 and npoints_hash = ref 17 in
  Array.iter
    (fun (l : Workloads.Bezier.line) ->
      let x0, y0 = l.p0 and x1, y1 = l.p1 and x2, y2 = l.p2 in
      let n = Workloads.Bezier.tess_points d l in
      npoints_hash := (!npoints_hash * 31) + n land 0x3FFFFFFFFFFFFFF;
      for i = 0 to n - 1 do
        let u = float_of_int i /. float_of_int (n - 1) in
        let v = 1.0 -. u in
        let b0 = v *. v and b1 = 2.0 *. v *. u and b2 = u *. u in
        let x = (b0 *. x0) +. (b1 *. x1) +. (b2 *. x2) in
        let y = (b0 *. y0) +. (b1 *. y1) +. (b2 *. y2) in
        checksum :=
          !checksum + int_of_float (x *. 64.0) + int_of_float (y *. 64.0)
      done)
    d.lines;
  !checksum + !npoints_hash

(* The flattened control-point arrays the driver uploads. *)
let control_points (d : Workloads.Bezier.t) =
  let n_lines = Array.length d.lines in
  let cpx = Array.make (3 * n_lines) 0.0 and cpy = Array.make (3 * n_lines) 0.0 in
  Array.iteri
    (fun l (ln : Workloads.Bezier.line) ->
      let set i (x, y) =
        cpx.((3 * l) + i) <- x;
        cpy.((3 * l) + i) <- y
      in
      set 0 ln.p0;
      set 1 ln.p1;
      set 2 ln.p2)
    d.lines;
  (cpx, cpy)

(* The host driver: mallocs write only device-private vertex buffers and
   the checksum is an integer atomic sum, so the user-visible dump
   (control points, npoints, checksum) is order-independent. *)
let host (d : Workloads.Bezier.t) : Native.Hostspec.t =
  let n_lines = Array.length d.lines in
  let cpx, cpy = control_points d in
  let open Native.Hostspec in
  {
    ops =
      [
        Alloc_floats cpx;
        Alloc_floats cpy;
        Alloc_int_zeros n_lines;
        Alloc_int_zeros 1;
        Launch
          {
            kernel = "bt_parent";
            grid = ((n_lines + 127) / 128, 1, 1);
            block = (128, 1, 1);
            args =
              [
                A_buf 0; A_buf 1; A_buf 2; A_buf 3; A_int n_lines;
                A_int d.max_tessellation; A_float d.curvature_scale;
              ];
          };
        Sync;
      ];
  }

(* Run [host] and read back the checksum (buffer 3) and the point counts
   (buffer 2). *)
let run host (d : Workloads.Bezier.t) dev =
  let bufs = Native.Hostspec.exec dev host in
  let cs = (Gpusim.Device.read_ints dev bufs.(3) 1).(0) in
  let np = Gpusim.Device.read_ints dev bufs.(2) (Array.length d.lines) in
  cs + Bench_common.array_hash np

(* Workload profile: one host launch; one parent item per line whose child
   size is the tessellation point count from the curvature formula. *)
let workload (d : Workloads.Bezier.t) : Bench_common.workload =
  {
    child_sizes = Array.map (Workloads.Bezier.tess_points d) d.lines;
    rounds = 1;
    parent_block = 128;
  }

let spec ~(dataset : Workloads.Bezier.t) : Bench_common.spec =
  let host = host dataset in
  {
    name = "BT";
    dataset = dataset.name;
    cdp_src;
    no_cdp_src;
    parent_kernel = "bt_parent";
    max_child_threads = dataset.max_tessellation;
    workload = workload dataset;
    run = run host dataset;
    reference = Bench_common.once (reference dataset);
    native_host = Some host;
  }
