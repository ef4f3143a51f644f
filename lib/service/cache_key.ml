module Config = Accel.Config
module F = Lcmm.Framework

let f = Printf.sprintf "%.17g"

let config_fingerprint (c : Config.t) =
  String.concat "|"
    [ c.Config.device.Fpga.Device.device_name;
      Tensor.Dtype.to_string c.Config.dtype;
      Printf.sprintf "pe:%dx%dx%d" c.Config.pe.Accel.Pe_array.tm_unroll
        c.Config.pe.Accel.Pe_array.tn_unroll c.Config.pe.Accel.Pe_array.tsp_unroll;
      Printf.sprintf "tile:%dx%dx%dx%d" c.Config.tile.Accel.Tiling.tm
        c.Config.tile.Accel.Tiling.tn c.Config.tile.Accel.Tiling.th
        c.Config.tile.Accel.Tiling.tw;
      "freq:" ^ f c.Config.freq_mhz;
      "ddr-eff:" ^ f c.Config.ddr_efficiency;
      "burst:" ^ f c.Config.burst_overhead;
      "aux:" ^ string_of_int c.Config.aux_ops_per_cycle;
      "fused:" ^ string_of_bool c.Config.fused_eltwise ]

let options_fingerprint (o : F.options) =
  String.concat "|"
    ([ "fr:" ^ string_of_bool o.F.feature_reuse;
      "wp:" ^ string_of_bool o.F.weight_prefetch;
      "bs:" ^ string_of_bool o.F.buffer_splitting;
      "sh:" ^ string_of_bool o.F.buffer_sharing;
      "mb:" ^ string_of_bool o.F.memory_bound_only;
      ("comp:"
      ^ match o.F.compensation with
        | Lcmm.Dnnk.Table_approx -> "table"
        | Lcmm.Dnnk.Exact_iterative -> "exact");
      ("col:"
      ^ match o.F.coloring with
        | Lcmm.Coloring.Min_growth -> "min_growth"
        | Lcmm.Coloring.First_fit -> "first_fit");
      ("cap:"
      ^ match o.F.capacity_override with
        | None -> "none"
        | Some b -> string_of_int b);
      "slices:" ^ string_of_int o.F.weight_slices;
      "fusion:" ^ string_of_bool o.F.fusion ]
     (* Folded only off-default so every pre-channel cache key — and
        persisted disk cache entry — keeps its digest. *)
     @ (if o.F.channels = 1 then [] else [ "ch:" ^ string_of_int o.F.channels ]))

(* The hex MD5 of the parts joined by NUL bytes.  Each part appends
   itself to one buffer, so a graph's rendering is hashed without first
   being copied into its own string and then into the joined one. *)
let hash parts =
  let buf = Buffer.create 16384 in
  List.iteri
    (fun i add ->
      if i > 0 then Buffer.add_char buf '\x00';
      add buf)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let str s buf = Buffer.add_string buf s

let graph g buf = Dnn_serial.Codec.to_buffer buf g

let digest ?(extra = []) ~config ~options g =
  hash
    (graph g
    :: str (config_fingerprint config)
    :: str (options_fingerprint options)
    :: List.map str extra)

let request_digest ?(extra = []) ~dtype ~device ~options g =
  hash
    (graph g
    :: str (Tensor.Dtype.to_string dtype)
    :: str device.Fpga.Device.device_name
    :: str (options_fingerprint options)
    :: List.map str extra)

let run_digest ?(extra = []) ~dtype ~device ~options tenants =
  hash
    (str (Tensor.Dtype.to_string dtype)
     :: str device.Fpga.Device.device_name
     :: str (options_fingerprint options)
     :: List.map str extra
    @ List.concat_map (fun (g, tag) -> [ str tag; graph g ]) tenants)
