(** Per-kernel parallel-dispatch safety report (see the interface). *)

type entry = {
  ps_kernel : string;
  ps_params : string list;
  ps_summary : Gpusim.Blocksafe.summary;
}

let report (prog : Minicu.Ast.program) =
  List.filter_map
    (fun (f : Minicu.Ast.func) ->
      match f.f_kind with
      | Minicu.Ast.Device -> None
      | Minicu.Ast.Global ->
          Some
            {
              ps_kernel = f.f_name;
              ps_params =
                List.map (fun (p : Minicu.Ast.param) -> p.p_name) f.f_params;
              ps_summary = Gpusim.Blocksafe.analyze prog f;
            })
    prog

let pp_mode ppf (m : Gpusim.Blocksafe.mode) =
  match m with
  | Gpusim.Blocksafe.Read_only -> Fmt.string ppf "read-only"
  | Gpusim.Blocksafe.Owned stride -> Fmt.pf ppf "owned x%d" stride
  | Gpusim.Blocksafe.Reduce -> Fmt.string ppf "reduce"

let pp_entry ppf e =
  let s = e.ps_summary in
  if s.Gpusim.Blocksafe.bs_safe then
    let modes =
      List.mapi
        (fun i name ->
          Fmt.str "%s: %a" name pp_mode s.Gpusim.Blocksafe.bs_modes.(i))
        e.ps_params
    in
    Fmt.pf ppf "parsafety %s: parallel-safe (%s%s)" e.ps_kernel
      (String.concat ", " modes)
      (if s.Gpusim.Blocksafe.bs_needs_1d then "; needs 1-D dims" else "")
  else
    Fmt.pf ppf "parsafety %s: serial (%s)" e.ps_kernel
      s.Gpusim.Blocksafe.bs_reason

let pp ppf entries =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) entries
